package store

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
)

// Chaos coverage for the incremental checkpoint: a kill at every stage —
// during a shard segment write, before the manifest commit, and after the
// commit but before WAL reclaim — must lose nothing acknowledged.

// checkpointChaosFleet ingests a small fleet with a clean checkpoint in
// the middle, so a later incremental checkpoint has both chained segments
// and dirty shards. Returns acknowledged point counts per id.
func checkpointChaosFleet(t *testing.T, s *Store) map[string]int {
	t.Helper()
	acked := map[string]int{}
	acked["bus-1"] = ingest(t, s, "bus-1", 1, 3, 31)
	acked["bus-2"] = ingest(t, s, "bus-2", 2, 3, 29)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked["bus-3"] = ingest(t, s, "bus-3", 3, 4, 27)
	acked["bus-1"] += len(ingestMore(t, s, "bus-1", 1, 3, 5))
	return acked
}

// verifyChaosFleet reopens dir and requires every acknowledged point back.
func verifyChaosFleet(t *testing.T, dir string, acked map[string]int) {
	t.Helper()
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	for id, n := range acked {
		st, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if st.Points != n {
			t.Errorf("%s: recovered %d points, acknowledged %d", id, st.Points, n)
		}
	}
}

// TestChaosKillDuringSegmentWrite fails a shard segment write mid-
// checkpoint and kills the process: the manifest was never updated, so
// the previous snapshot plus the intact WAL must restore everything.
func TestChaosKillDuringSegmentWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := checkpointChaosFleet(t, s)
	s.SetFaultHook(faultinject.FailN(faultinject.OpSnapshotShard, 1, nil))
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected segment failure not surfaced: %v", err)
	}
	crash(s)
	verifyChaosFleet(t, dir, acked)
}

// TestChaosKillBeforeManifestCommit fails the checkpoint at the manifest
// write — after every new segment hit disk — and kills the process: the
// old manifest is still in place and must not reference the new epoch.
func TestChaosKillBeforeManifestCommit(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := checkpointChaosFleet(t, s)
	s.SetFaultHook(faultinject.FailN(faultinject.OpManifest, 1, nil))
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected manifest failure not surfaced: %v", err)
	}
	crash(s)
	verifyChaosFleet(t, dir, acked)
}

// TestChaosKillAfterManifestBeforeReclaim simulates a crash in the window
// where the new manifest is committed but obsolete WAL segments and
// superseded snapshot segments still exist: the reopened store must treat
// the stale WAL records as no-ops and sweep the stale files, losing and
// duplicating nothing.
func TestChaosKillAfterManifestBeforeReclaim(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := checkpointChaosFleet(t, s)
	// The manifest fault point is consulted twice: before the commit and
	// after it (see faultinject.OpManifest). Let the first consult pass and
	// fail the second, so the checkpoint dies with the new manifest live
	// but reclaim never run.
	var consults atomic.Int64
	s.SetFaultHook(func(op faultinject.Op) error {
		if op == faultinject.OpManifest && consults.Add(1) == 2 {
			return faultinject.ErrInjected
		}
		return nil
	})
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected post-commit failure not surfaced: %v", err)
	}
	crash(s)
	verifyChaosFleet(t, dir, acked)
}

// TestChaosCheckpointRetryAfterFailure is the dirty-flag rollback
// contract: a failed checkpoint must restore the dirty marks it cleared,
// so the retry re-encodes those shards instead of chaining stale segments
// and then reclaiming the only WAL copy of their changes.
func TestChaosCheckpointRetryAfterFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := checkpointChaosFleet(t, s)
	s.SetFaultHook(faultinject.FailN(faultinject.OpSnapshotShard, 1, nil))
	if err := s.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("injected segment failure not surfaced: %v", err)
	}
	s.SetFaultHook(nil)
	if err := s.Checkpoint(); err != nil { // retry must succeed and reclaim the WAL
		t.Fatal(err)
	}
	crash(s)
	verifyChaosFleet(t, dir, acked)
}

// TestChaosIncrementalCheckpointCrashLoop hammers the full cycle: ingest,
// incremental checkpoint, crash, reopen — several rounds — and requires
// every acknowledged point to survive every round.
func TestChaosIncrementalCheckpointCrashLoop(t *testing.T) {
	dir := t.TempDir()
	acked := map[string]int{}
	for round := 0; round < 4; round++ {
		s, err := Open(dir, durableOpts())
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		id := []string{"bus-1", "bus-2"}[round%2]
		acked[id] += len(ingestMore(t, s, id, int64(round%2+1), round/2, round/2+1))
		if round%2 == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("round %d: checkpoint: %v", round, err)
			}
		}
		crash(s)
		verifyFleetOnce(t, dir, acked)
	}
}

func verifyFleetOnce(t *testing.T, dir string, acked map[string]int) {
	t.Helper()
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range acked {
		if st, err := back.Stats(id); err != nil || st.Points != n {
			t.Errorf("%s: recovered %v points, acknowledged %d (err %v)", id, st.Points, n, err)
		}
	}
	crash(back)
}

// TestLoadFailureLeaksNoGoroutines: an Open that dies mid-segment must shut
// down the partially built store's background machinery (train pool,
// recovery probe) instead of leaking it on every failed restore attempt.
func TestLoadFailureLeaksNoGoroutines(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 1, 4)
	body, _ := shardBody(t, s, int(shardIndex("bike")))
	s.Close()
	dir := t.TempDir()
	plantSnapshot(t, dir, body[:len(body)-10]) // mid final record: a decode error behind valid checksums

	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if _, err := Open(dir, durableOpts()); err == nil {
			t.Fatal("truncated segment accepted")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return // settled: nothing leaked
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by failed Opens: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCheckpointConcurrentWithObserves runs incremental checkpoints while
// writers keep ingesting, then crashes and verifies zero acknowledged
// loss — the snapshot gate's contract that a record committed to a
// rotated-away WAL segment is always covered by the checkpoint that
// reclaims it. Meant for -race as much as for the invariant itself.
func TestCheckpointConcurrentWithObserves(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 4
	type ack struct {
		id string
		n  int
	}
	results := make(chan ack, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			id := []string{"car-a", "car-b", "car-c", "car-d"}[w]
			spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(w+1))
			spec.Period = period
			spec.SubTrajectories = 2
			pts := hpm.GenerateDataset(spec).Points()
			acked := 0
			for i := 0; i < len(pts); i += 5 {
				end := i + 5
				if end > len(pts) {
					end = len(pts)
				}
				if err := s.ObserveBatch(id, pts[i:end]); err != nil {
					break
				}
				acked = end
			}
			results <- ack{id, acked}
		}(w)
	}
	for i := 0; i < 6; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Errorf("checkpoint %d: %v", i, err)
		}
	}
	acked := map[string]int{}
	for w := 0; w < writers; w++ {
		a := <-results
		acked[a.id] = a.n
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(s)
	verifyChaosFleet(t, dir, acked)
}
