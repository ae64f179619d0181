package store

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
	"hpm/internal/spatial"
)

// degradeOpts is durableOpts with fsyncs ON (the sync fault points only
// fire in sync mode) and the probe effectively disabled, so tests observe
// the degraded state without racing an auto-recovery.
func degradeOpts() Options {
	o := durableOpts()
	o.WALNoSync = false
	o.DegradeAfter = 2
	o.ProbeInterval = time.Hour
	return o
}

// forever is a FailN budget that never runs out within a test.
const forever = 1 << 30

func TestChaosDegradeOnSyncFailure(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, degradeOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := ingest(t, s, "bus-1", 1, 4, 37)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// From here every fsync fails. The bytes still land in the segment, so
	// nothing is torn — this is the "disk stops flushing" failure mode.
	s.SetFaultHook(faultinject.FailN(faultinject.OpWALSyncError, forever, nil))
	var lastErr error
	for i := 0; i < degradeOpts().DegradeAfter; i++ {
		if lastErr = s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(float64(i), 0)}); lastErr == nil {
			t.Fatalf("observe %d acknowledged despite failed fsync", i)
		}
	}
	if !s.degraded() {
		t.Fatalf("store not degraded after %d consecutive sync failures", degradeOpts().DegradeAfter)
	}
	// The appender whose flush tripped the threshold sees ErrDegraded too:
	// the state flips before the commit's waiters are released.
	if !errors.Is(lastErr, ErrDegraded) {
		t.Errorf("tripping observe error = %v, want ErrDegraded", lastErr)
	}

	// Writes of every flavor now fail fast, typed.
	if err := s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(1, 1)}); !errors.Is(err, ErrDegraded) {
		t.Errorf("Observe while degraded: %v, want ErrDegraded", err)
	}
	if err := s.ObserveAll([]Observation{{ID: "bus-2", Points: []hpm.Point{hpm.Pt(0, 0)}}}); !errors.Is(err, ErrDegraded) {
		t.Errorf("ObserveAll while degraded: %v, want ErrDegraded", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Checkpoint while degraded: %v, want ErrDegraded", err)
	}

	// Reads keep serving from memory, untouched.
	st, err := s.Stats("bus-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != acked {
		t.Errorf("degraded store lost in-memory points: %d, acked %d", st.Points, acked)
	}
	now, _ := s.Now("bus-1")
	if _, err := predict(s, "bus-1", now+10, 1); err != nil {
		t.Errorf("predict while degraded: %v", err)
	}

	h := s.Health()
	if h.State != "degraded" || !h.Degraded || h.Degrades != 1 {
		t.Errorf("health = %+v, want degraded once", h)
	}
	if h.WALErrors < uint64(degradeOpts().DegradeAfter) || h.LastWALError == "" {
		t.Errorf("health did not record the WAL failures: %+v", h)
	}

	// Close while degraded must not wedge, and must say it skipped the
	// final checkpoint (the disk is still refusing durable writes).
	if err := s.Close(); !errors.Is(err, ErrDegraded) {
		t.Errorf("Close while degraded: %v, want ErrDegraded", err)
	}

	// Everything acknowledged is on disk: the failed-fsync records were
	// never applied, the acked ones replay.
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	st, err = back.Stats("bus-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points < acked {
		t.Errorf("reopened with %d points, acknowledged %d", st.Points, acked)
	}
}

func TestChaosDiskFullDegradesImmediately(t *testing.T) {
	opts := degradeOpts()
	opts.DegradeAfter = 1000 // only the ENOSPC/torn-write path may degrade
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.SetFaultHook(nil); s.Close() }()
	ingest(t, s, "bus-1", 1, 4, 37)

	enospc := fmt.Errorf("write wal segment: %w", syscall.ENOSPC)
	s.SetFaultHook(faultinject.FailN(faultinject.OpDiskFull, forever, enospc))
	err = s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(0, 0)})
	if err == nil {
		t.Fatal("observe acknowledged on a full disk")
	}
	if !s.degraded() {
		t.Fatal("single ENOSPC write failure did not degrade immediately")
	}
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
		t.Errorf("error = %v, want ErrDegraded wrapping ENOSPC", err)
	}
}

// TestChaosKillWhileDegraded crashes a degraded store and requires a clean
// reopen with every acknowledged observation intact: the damaged segment is
// the newest on disk, which replay handles tolerantly.
func TestChaosKillWhileDegraded(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, degradeOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := ingest(t, s, "bus-1", 1, 4, 37)
	s.SetFaultHook(faultinject.FailN(faultinject.OpDiskFull, forever, syscall.ENOSPC))
	if err := s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(0, 0)}); err == nil {
		t.Fatal("observe acknowledged on a full disk")
	}
	if !s.degraded() {
		t.Fatal("store not degraded")
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("reopen after kill-while-degraded: %v", err)
	}
	defer back.Close()
	if back.degraded() {
		t.Error("fresh open started degraded")
	}
	if err := back.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := back.Stats("bus-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != acked {
		t.Errorf("recovered %d points, acknowledged %d", st.Points, acked)
	}
	now, _ := back.Now("bus-1")
	if _, err := predict(back, "bus-1", now+10, 1); err != nil {
		t.Errorf("predict after recovery: %v", err)
	}
}

// TestChaosRecoverZeroAckedLoss runs the full degrade → probe → recover
// cycle: one injected fsync failure flips the store read-only, the probe
// finds the disk healthy again, recovery rotates the WAL and checkpoints,
// and writes resume — with every acknowledged observation surviving a
// crash after the fact.
func TestChaosRecoverZeroAckedLoss(t *testing.T) {
	dir := t.TempDir()
	opts := degradeOpts()
	opts.DegradeAfter = 1
	opts.ProbeInterval = 5 * time.Millisecond
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	acked := ingest(t, s, "bus-1", 1, 4, 37)

	// Exactly one fsync fails; the probe's next look finds the disk fine.
	s.SetFaultHook(faultinject.FailN(faultinject.OpWALSyncError, 1, nil))
	if err := s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(0, 0)}); err == nil {
		t.Fatal("observe acknowledged through the failed fsync")
	}
	if !s.degraded() {
		t.Fatal("store not degraded after fsync failure with DegradeAfter=1")
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("store never recovered; health %+v", s.Health())
		}
		time.Sleep(time.Millisecond)
	}
	h := s.Health()
	if h.State != "healthy" || h.Recoveries != 1 || h.Degrades != 1 {
		t.Errorf("post-recovery health = %+v", h)
	}

	// Writes are back, and everything acknowledged before, during (there
	// was nothing — every degraded write errored) and after the outage
	// survives a crash. Recovery checkpointed, so the never-acknowledged
	// record whose fsync failed is gone from disk too: the count is exact.
	acked += len(ingestMore(t, s, "bus-1", 1, 4, 6))
	crash(s)
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if !back.Health().SnapshotRestored {
		t.Error("recovery checkpoint left no snapshot")
	}
	st, err := back.Stats("bus-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != acked {
		t.Errorf("recovered %d points, acknowledged %d", st.Points, acked)
	}
}

// TestChaosDiskFullDuringCheckpoint fails a snapshot write mid-checkpoint
// and requires the previous snapshot and the WAL to remain authoritative:
// the store keeps serving and writing, and a crash afterwards loses
// nothing acknowledged.
func TestChaosDiskFullDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	acked := ingest(t, s, "bus-1", 1, 4, 37)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	acked += len(ingestMore(t, s, "bus-1", 1, 4, 6))

	s.SetFaultHook(faultinject.FailN(faultinject.OpDiskFull, 1, syscall.ENOSPC))
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded through a full disk")
	}
	// A failed snapshot is not a failed WAL: the store stays healthy and
	// writable (the WAL segments the snapshot would have reclaimed are
	// still there, still authoritative).
	if s.degraded() {
		t.Fatal("failed checkpoint degraded the store")
	}
	acked += len(ingestMore(t, s, "bus-1", 1, 6, 7))

	crash(s)
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	h := back.Health()
	if !h.SnapshotRestored || h.WALReplayed == 0 {
		t.Fatalf("recovery did not use the previous snapshot + WAL: %+v", h)
	}
	st, err := back.Stats("bus-1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != acked {
		t.Errorf("recovered %d points, acknowledged %d", st.Points, acked)
	}
}

// TestChaosSyncLatencyNoDegrade pins that a slow disk is not a failed
// disk: delayed fsyncs that still succeed must not trip the state machine.
func TestChaosSyncLatencyNoDegrade(t *testing.T) {
	opts := degradeOpts()
	opts.DegradeAfter = 1
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetFaultHook(faultinject.DelayN(faultinject.OpWALSyncLatency, -1, 2*time.Millisecond))
	ingest(t, s, "bus-1", 1, 2, 30)
	if s.degraded() {
		t.Error("slow fsyncs degraded the store")
	}
	if h := s.Health(); h.WALErrors != 0 {
		t.Errorf("slow fsyncs counted as errors: %+v", h)
	}
}

// TestChaosFleetIndexServesWhileDegraded: the fleet spatial index answers
// range and kNN queries from memory while the store refuses writes.
func TestChaosFleetIndexServesWhileDegraded(t *testing.T) {
	opts := degradeOpts()
	opts.FleetIndex = &spatial.Config{CellSize: 50}
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.SetFaultHook(nil); s.Close() }()
	ingest(t, s, "bus-1", 1, 4, 37)
	ingest(t, s, "bus-2", 2, 4, 37)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	s.SetFaultHook(faultinject.FailN(faultinject.OpDiskFull, forever, syscall.ENOSPC))
	if err := s.ObserveBatch("bus-1", []hpm.Point{hpm.Pt(0, 0)}); !errors.Is(err, ErrDegraded) && err == nil {
		t.Fatal("observe acknowledged on a full disk")
	}
	if !s.degraded() {
		t.Fatal("store not degraded")
	}

	rect := hpm.Rect{Min: hpm.Pt(-1e6, -1e6), Max: hpm.Pt(1e6, 1e6)}
	res, err := queryRange(s, rect, 10)
	if err != nil {
		t.Fatalf("range query while degraded: %v", err)
	}
	if len(res) != 2 {
		t.Errorf("range query found %d objects, want 2", len(res))
	}
	near, err := queryNearest(s, hpm.Pt(0, 0), 1, 10)
	if err != nil {
		t.Fatalf("kNN query while degraded: %v", err)
	}
	if len(near) != 1 {
		t.Errorf("kNN returned %d results, want 1", len(near))
	}
}

// TestChaosDegradeUnderConcurrentIngest degrades the store under write
// pressure from many goroutines and requires (a) no hangs, and (b) the
// acknowledgment barrier per object: exactly the acked points are applied.
func TestChaosDegradeUnderConcurrentIngest(t *testing.T) {
	opts := degradeOpts()
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers = 4
	acked := make([]int, writers)
	var ackedBatches atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("bus-%d", g)
			spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(g+1))
			spec.Period = s.Period()
			spec.SubTrajectories = 8
			pts := hpm.GenerateDataset(spec).Points()
			for off := 0; off < len(pts); off += 7 {
				end := off + 7
				if end > len(pts) {
					end = len(pts)
				}
				if err := s.ObserveBatch(id, pts[off:end]); err != nil {
					return // not acknowledged; stop like a shed client would
				}
				acked[g] = end
				ackedBatches.Add(1)
			}
		}(g)
	}
	// Pull the disk out once every writer has at least one acknowledged
	// batch, so the test exercises mid-stream failure, not a dead start.
	for ackedBatches.Load() < writers {
		time.Sleep(100 * time.Microsecond)
	}
	s.SetFaultHook(faultinject.FailN(faultinject.OpWALSyncError, forever, nil))
	wg.Wait()

	// Writers stop at their first error, so the concurrent phase may end
	// one failure short of DegradeAfter; a couple more writes settle it.
	for i := 0; i < 2*degradeOpts().DegradeAfter && !s.degraded(); i++ {
		_ = s.ObserveBatch("straggler", []hpm.Point{hpm.Pt(0, 0)})
	}
	if !s.degraded() {
		t.Fatal("persistent sync failure under load never degraded the store")
	}
	for g := 0; g < writers; g++ {
		id := fmt.Sprintf("bus-%d", g)
		st, err := s.Stats(id)
		if err != nil {
			if acked[g] == 0 {
				continue // degraded before this writer's first ack
			}
			t.Fatalf("%s: %v", id, err)
		}
		if st.Points != acked[g] {
			t.Errorf("%s: %d points applied, %d acknowledged", id, st.Points, acked[g])
		}
	}
}
