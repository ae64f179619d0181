package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
)

// durableOpts is the fast-test configuration for durable stores: WAL
// fsyncs off (tmpdir tests don't survive power loss anyway).
func durableOpts() Options {
	return Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
		WALNoSync:       true,
	}
}

// crash simulates a kill -9: the WAL handle is dropped without a
// checkpoint and the store object is abandoned. Whatever reached the log
// is all a reopened store gets.
func crash(s *Store) {
	s.wal.close()
}

// ingest streams a dataset into the store in small batches, returning how
// many points were acknowledged.
func ingest(t *testing.T, s *Store, id string, seed int64, periods, batch int) int {
	t.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
	spec.Period = s.Period()
	spec.SubTrajectories = periods
	pts := hpm.GenerateDataset(spec).Points()
	acked := 0
	for off := 0; off < len(pts); off += batch {
		end := off + batch
		if end > len(pts) {
			end = len(pts)
		}
		if err := s.ObserveBatch(id, pts[off:end]); err != nil {
			t.Fatalf("%s: observe at %d: %v", id, off, err)
		}
		acked = end
	}
	return acked
}

// TestChaosCrashRecoveryNoAcknowledgedLoss is the headline chaos test:
// ingest a fleet with a checkpoint mid-stream, kill the store, reopen
// from snapshot+WAL, and require every acknowledged observation back and
// a working predictor for every trained object.
func TestChaosCrashRecoveryNoAcknowledgedLoss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := map[string]int{}
	acked["bus-1"] = ingest(t, s, "bus-1", 1, 4, 37)
	acked["bus-2"] = ingest(t, s, "bus-2", 2, 3, 23)

	// Snapshot mid-stream; everything after this lives only in the WAL.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked["bus-3"] = ingest(t, s, "bus-3", 3, 5, 41)
	acked["bus-1"] += len(ingestMore(t, s, "bus-1", 1, 4, 6))

	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	h := back.Health()
	if !h.SnapshotRestored || h.WALReplayed == 0 {
		t.Fatalf("recovery did not use snapshot+WAL: %+v", h)
	}
	if err := back.Flush(); err != nil {
		t.Fatal(err)
	}
	for id, n := range acked {
		st, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st.Points != n {
			t.Errorf("%s: recovered %d points, acknowledged %d", id, st.Points, n)
		}
		if !st.Trained {
			t.Errorf("%s: not trained after recovery (%d periods)", id, st.Periods)
			continue
		}
		now, _ := back.Now(id)
		if _, err := back.Predict(id, now+10, 1); err != nil {
			t.Errorf("%s: predict after recovery: %v", id, err)
		}
	}
}

// ingestMore streams the dataset's periods [from, to) so a track can be
// grown in stages across crashes.
func ingestMore(t *testing.T, s *Store, id string, seed int64, from, to int) []hpm.Point {
	t.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
	spec.Period = s.Period()
	spec.SubTrajectories = to
	pts := hpm.GenerateDataset(spec).Slice(from*s.Period(), to*s.Period())
	if err := s.ObserveBatch(id, pts); err != nil {
		t.Fatal(err)
	}
	return pts
}

// TestChaosCrashWithTornTail appends garbage to the newest WAL segment —
// a crash mid-append — and requires recovery to keep everything before
// the tear.
func TestChaosCrashWithTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := ingest(t, s, "bus", 7, 4, 19)
	crash(s)

	segs, _, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-length prefix followed by nothing: a torn append.
	if _, err := f.Write([]byte{0x40, 0x03, 0x62, 0x75}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer back.Close()
	st, err := back.Stats("bus")
	if err != nil || st.Points != n {
		t.Fatalf("recovered %d points (err %v), acknowledged %d", st.Points, err, n)
	}
}

// TestChaosRepeatedCrashes loses a process after every few batches, never
// once checkpointing, and still ends with the full acknowledged track.
func TestChaosRepeatedCrashes(t *testing.T) {
	dir := t.TempDir()
	total := 0
	for round := 0; round < 4; round++ {
		s, err := Open(dir, durableOpts())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		pts := ingestMore(t, s, "bus", 9, round, round+1)
		total += len(pts)
		crash(s)
	}
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	st, err := back.Stats("bus")
	if err != nil || st.Points != total {
		t.Fatalf("recovered %d points (err %v), acknowledged %d", st.Points, err, total)
	}
}

// TestChaosWALAppendFailureNotAcknowledged verifies the contract that a
// failed WAL write refuses the observation instead of half-applying it.
func TestChaosWALAppendFailureNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := ingest(t, s, "bus", 5, 3, 30)

	s.SetFaultHook(faultinject.FailN(faultinject.OpWALAppend, 2, nil))
	for i := 0; i < 2; i++ {
		if err := s.Observe("bus", hpm.Pt(1, 2)); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("injected WAL failure not surfaced: %v", err)
		}
	}
	if st, _ := s.Stats("bus"); st.Points != n {
		t.Fatalf("rejected observe mutated the track: %d != %d", st.Points, n)
	}
	// The path heals once the fault clears.
	if err := s.Observe("bus", hpm.Pt(1, 2)); err != nil {
		t.Fatal(err)
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if st, _ := back.Stats("bus"); st.Points != n+1 {
		t.Fatalf("recovered %d points, acknowledged %d", st.Points, n+1)
	}
}

// TestChaosCheckpointFailureKeepsWAL injects a snapshot fault and
// verifies no WAL segment is reclaimed, so a crash right after the failed
// checkpoint still recovers everything.
func TestChaosCheckpointFailureKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := ingest(t, s, "bus", 11, 3, 25)

	s.SetFaultHook(faultinject.FailN(faultinject.OpSnapshot, 1, nil))
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected snapshot failure not surfaced: %v", err)
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if h := back.Health(); h.SnapshotRestored {
		t.Fatal("failed checkpoint left a snapshot behind")
	}
	if st, _ := back.Stats("bus"); st.Points != n {
		t.Fatalf("recovered %d points, acknowledged %d", st.Points, n)
	}
}

func TestOpenRejectsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus", 13, 3, 60)
	if err := s.Close(); err != nil { // final checkpoint writes the snapshot
		t.Fatal(err)
	}
	path := dir + "/" + snapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{0, len(data) / 3, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0x01
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, durableOpts()); err == nil {
			t.Errorf("bit flip at %d: corrupt snapshot accepted", at)
		}
	}
	// Truncation is caught too.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableOpts()); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

// TestTrainPanicRecoveredAndRetried injects a panic into the first train
// attempt: the process must survive, the retry must succeed, and the
// failure must be visible in Stats/Health until Flush drains it.
func TestTrainPanicRecoveredAndRetried(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	s.retryBackoff = time.Millisecond
	s.SetFaultHook(faultinject.PanicN(faultinject.OpTrain, 1))
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 21)
	spec.Period = period
	spec.SubTrajectories = 3
	if err := s.ObserveBatch("bike", hpm.GenerateDataset(spec).Points()); err != nil {
		t.Fatal(err)
	}

	err := s.Flush()
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panic attempt not reported by Flush: %v", err)
	}
	st, _ := s.Stats("bike")
	if !st.Trained {
		t.Fatal("retry after panic did not train")
	}
	if st.TrainFailures != 1 || st.LastTrainError != "" {
		t.Errorf("stats after recovered panic: failures=%d lastErr=%q", st.TrainFailures, st.LastTrainError)
	}
	h := s.Health()
	if h.TrainFailures != 1 {
		t.Errorf("health total failures = %d, want 1", h.TrainFailures)
	}
	if len(h.RecentTrainErrors) != 0 {
		t.Errorf("ring not drained by Flush: %v", h.RecentTrainErrors)
	}
	now, _ := s.Now("bike")
	if _, err := s.Predict("bike", now+10, 1); err != nil {
		t.Errorf("predict after recovered panic: %v", err)
	}
}

// TestTrainRepeatedFailureKeepsServing wedges every retrain attempt and
// verifies the object keeps answering from its previous model, surfaces
// the error, and recovers once the fault clears.
func TestTrainRepeatedFailureKeepsServing(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 2})
	s.maxRetries, s.retryBackoff = 1, time.Millisecond
	feed(t, s, "bike", 31, 3) // healthy initial train
	p1, _ := s.Predictor("bike")

	s.SetFaultHook(faultinject.FailN(faultinject.OpTrain, 1<<30, nil))
	ingestMore(t, s, "bike", 31, 3, 5) // crosses RetrainEvery
	if err := s.Flush(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("failed retrain not reported: %v", err)
	}

	st, _ := s.Stats("bike")
	if st.Training {
		t.Fatal("object wedged in training state")
	}
	if st.TrainFailures != 2 { // one attempt + one retry
		t.Errorf("train failures = %d, want 2", st.TrainFailures)
	}
	if st.LastTrainError == "" {
		t.Error("last train error not surfaced in stats")
	}
	if !st.Trained || st.Modeled != 3 {
		t.Fatalf("previous model lost: %+v", st)
	}
	now, _ := s.Now("bike")
	if _, err := s.Predict("bike", now+10, 1); err != nil {
		t.Errorf("predict during failing retrains: %v", err)
	}
	if p2, _ := s.Predictor("bike"); p2 != p1 {
		t.Error("failing retrain replaced the predictor")
	}

	// Fault clears: the next completed periods schedule a fresh retrain.
	s.SetFaultHook(nil)
	ingestMore(t, s, "bike", 31, 5, 7)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats("bike")
	if st.Modeled != 7 || st.LastTrainError != "" {
		t.Errorf("object did not recover: %+v", st)
	}
}

// TestTrainRetryBacksOff measures that retries are spaced by the
// configured (doubling) backoff rather than hot-looping.
func TestTrainRetryBacksOff(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	s.maxRetries, s.retryBackoff = 2, 30*time.Millisecond
	s.SetFaultHook(faultinject.FailN(faultinject.OpTrain, 1<<30, nil))
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 41)
	spec.Period = period
	spec.SubTrajectories = 3
	start := time.Now()
	if err := s.ObserveBatch("bike", hpm.GenerateDataset(spec).Points()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("expected train failures")
	}
	// Two backoffs: 30ms + 60ms. Allow generous slack below the sum.
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("retries completed in %v; backoff not applied", elapsed)
	}
	if st, _ := s.Stats("bike"); st.TrainFailures != 3 {
		t.Errorf("attempts = %d, want 3 (1 + 2 retries)", st.TrainFailures)
	}
}

// TestTrainErrorRingBounded overflows the ring and checks it stays fixed
// size while the total keeps counting.
func TestTrainErrorRingBounded(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 1})
	s.maxRetries = 0 // one failure per object
	s.SetFaultHook(faultinject.FailN(faultinject.OpTrain, 1<<30, nil))
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 51)
	spec.Period = period
	spec.SubTrajectories = 1
	pts := hpm.GenerateDataset(spec).Points()

	n := trainErrRingCap + 10
	for i := 0; i < n; i++ {
		if err := s.ObserveBatch(fmt.Sprintf("obj-%03d", i), pts); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the pool to settle without draining the ring.
	deadline := time.Now().Add(10 * time.Second)
	for s.Health().PendingTrains > 0 {
		if time.Now().After(deadline) {
			t.Fatal("trains did not settle")
		}
		time.Sleep(time.Millisecond)
	}
	h := s.Health()
	if h.TrainFailures != uint64(n) {
		t.Errorf("total failures = %d, want %d", h.TrainFailures, n)
	}
	if len(h.RecentTrainErrors) != trainErrRingCap {
		t.Errorf("ring holds %d errors, want cap %d", len(h.RecentTrainErrors), trainErrRingCap)
	}
	if err := s.Flush(); err == nil {
		t.Error("Flush dropped the ring errors")
	}
	if len(s.Health().RecentTrainErrors) != 0 {
		t.Error("Flush did not drain the ring")
	}
}

func TestObserveRejectsNonFinite(t *testing.T) {
	s := testStore(t, Options{})
	for _, p := range []hpm.Point{
		hpm.Pt(math.NaN(), 0),
		hpm.Pt(0, math.NaN()),
		hpm.Pt(math.Inf(1), 0),
		hpm.Pt(0, math.Inf(-1)),
	} {
		if err := s.Observe("x", p); !errors.Is(err, ErrInvalidPoint) {
			t.Errorf("point %v: err = %v, want ErrInvalidPoint", p, err)
		}
	}
	// A batch with one bad point is rejected whole, before any state.
	if err := s.ObserveBatch("x", []hpm.Point{hpm.Pt(1, 2), hpm.Pt(math.NaN(), 3)}); !errors.Is(err, ErrInvalidPoint) {
		t.Errorf("mixed batch: err = %v", err)
	}
	if len(s.Objects()) != 0 {
		t.Error("rejected observes created an object")
	}
}

// TestChaosConcurrentIngestCrash hammers a durable store from several
// writers, kills it, and requires the reopened store to hold exactly each
// object's acknowledged prefix and answer queries. Run with -race.
func TestChaosConcurrentIngestCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	acked := make([]int, writers)
	done := make(chan int, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(100+w))
			spec.Period = period
			spec.SubTrajectories = 4
			pts := hpm.GenerateDataset(spec).Points()
			n := 0
			for off := 0; off < len(pts); off += 17 {
				end := off + 17
				if end > len(pts) {
					end = len(pts)
				}
				if err := s.ObserveBatch(fmt.Sprintf("w-%d", w), pts[off:end]); err != nil {
					break
				}
				n = end
			}
			done <- n
			_ = acked
		}(w)
	}
	for w := 0; w < writers; w++ {
		acked[w] = <-done
	}
	// One checkpoint racing nothing in particular, then crash.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if err := back.Flush(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("w-%d", w)
		st, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st.Points != acked[w] {
			t.Errorf("%s: recovered %d points, acknowledged %d", id, st.Points, acked[w])
		}
		now, _ := back.Now(id)
		if _, err := back.Predict(id, now+10, 1); err != nil {
			t.Errorf("%s: predict after recovery: %v", id, err)
		}
	}
}

// TestDurableSyncModeRoundTrip exercises the default fsync-per-append
// path end to end (small volume; the other chaos tests run unsynced for
// speed).
func TestDurableSyncModeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.WALNoSync = false
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bus", walPoints(0, 10)); err != nil {
		t.Fatal(err)
	}
	crash(s)
	back, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if st, _ := back.Stats("bus"); st.Points != 10 {
		t.Fatalf("recovered %d points, want 10", st.Points)
	}
}

// TestDurableCloseReopen is the graceful path: Close checkpoints, and a
// reopen needs no WAL replay at all.
func TestDurableCloseReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := ingest(t, s, "bus", 17, 4, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	h := back.Health()
	if !h.SnapshotRestored || h.WALReplayed != 0 {
		t.Fatalf("graceful reopen replayed WAL: %+v", h)
	}
	st, _ := back.Stats("bus")
	if st.Points != n || !st.Trained {
		t.Fatalf("reopened stats: %+v, want %d points trained", st, n)
	}
}

// TestOpenHoldsTheSnapshotsPeriod: a directory keeps the period it was
// created with. Reopening it with that period, or with none, serves it;
// reopening it with another is refused, loudly, before any segment is read,
// and the refused Open leaves no goroutine and no file handle behind.
func TestOpenHoldsTheSnapshotsPeriod(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	n := ingest(t, s, "bus", 17, 4, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{period, 0} {
		opts := durableOpts()
		opts.Config.Period = p
		back, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("reopen with period %d: %v", p, err)
		}
		if st, _ := back.Stats("bus"); back.Period() != period || st.Points != n || !st.Trained {
			t.Errorf("reopen with period %d serves period %d, %+v", p, back.Period(), st)
		}
		if err := back.Close(); err != nil {
			t.Fatal(err)
		}
	}

	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(fds)
	}
	// With a segment gone, an Open that read any of them would fail on that:
	// the refusal comes from the manifest, before a store exists.
	segs, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment to delete (err %v)", err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	goroutines, files := runtime.NumGoroutine(), openFiles()
	opts := durableOpts()
	opts.Config.Period = 5 * period
	for i := 0; i < 20; i++ {
		back, err := Open(dir, opts)
		if err == nil {
			back.Close()
			t.Fatalf("a period-%d directory opened with period %d", period, opts.Config.Period)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("holds a period-%d fleet", period)) {
			t.Fatalf("refusal does not name the period: %v", err)
		}
	}
	if n := openFiles(); n > files {
		t.Errorf("refused Opens left %d file handles behind", n-files)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by refused Opens: %d before, %d after", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosGroupCommitCrashNoLoss is the group-commit durability test:
// many writers in full sync mode, every ObserveBatch fsynced (possibly
// coalesced into a neighbour's group commit), then a hard crash. Zero
// acknowledged records may be missing. Sync mode plus >1 writer is
// exactly where a group-commit bug (acking before the leader's fsync)
// would lose data.
func TestChaosGroupCommitCrashNoLoss(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts()
	opts.WALNoSync = false // the whole point: acks must ride an fsync
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 60
	acked := make([]int, writers)
	done := make(chan struct{}, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			id := fmt.Sprintf("gc-%d", w)
			for off := 0; off < perWriter; off += 5 {
				if err := s.ObserveBatch(id, walPoints(off, 5)); err != nil {
					return
				}
				acked[w] = off + 5
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		<-done
	}
	stats := s.WALStats()
	if stats.Records == 0 || stats.Fsyncs == 0 {
		t.Fatalf("sync ingest recorded no WAL activity: %+v", stats)
	}
	crash(s)

	back, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	for w := 0; w < writers; w++ {
		id := fmt.Sprintf("gc-%d", w)
		st, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s lost entirely: %v", id, err)
		}
		if st.Points != acked[w] {
			t.Errorf("%s: recovered %d points, acknowledged %d", id, st.Points, acked[w])
		}
	}
}

// TestChaosDurableFleetBatchCrash commits fleet batches (ObserveAll:
// several objects per WAL group write), crashes, and requires every
// acknowledged batch back in full — a multi-object group record must be
// all-in after recovery, and per-object order preserved.
func TestChaosDurableFleetBatchCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 12
	for r := 0; r < rounds; r++ {
		batch := []Observation{
			{ID: "fleet-a", Points: walPoints(r*3, 3)},
			{ID: "fleet-b", Points: walPoints(100+r*2, 2)},
			{ID: "fleet-a", Points: walPoints(r*3+100, 1)}, // repeated id, merged
		}
		if err := s.ObserveAll(batch); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	for id, want := range map[string]int{"fleet-a": rounds * 4, "fleet-b": rounds * 2} {
		st, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st.Points != want {
			t.Errorf("%s: recovered %d points, acknowledged %d", id, st.Points, want)
		}
	}
	// Order check: fleet-a's merged per-round points landed in batch order.
	obj, err := back.get("fleet-a", false)
	if err != nil {
		t.Fatal(err)
	}
	wantHead := append(walPoints(0, 3), walPoints(100, 1)...)
	for i, p := range wantHead {
		if obj.track[i] != p {
			t.Fatalf("fleet-a point %d = %v, want %v (merge order broken)", i, obj.track[i], p)
		}
	}
}
