package store

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
	"hpm/internal/spatial"
)

func TestRemoveUnknownIsNoOp(t *testing.T) {
	s := testStore(t, Options{})
	if err := s.Remove("ghost"); err != nil {
		t.Fatal(err)
	}
	feed(t, s, "bike", 1, 2)
	if err := s.Remove("bike"); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("bike"); err != nil { // double remove
		t.Fatal(err)
	}
	if _, err := s.Now("bike"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("removed object still known: %v", err)
	}
}

// TestRemoveDurableSurvivesCrash is the satellite's headline: a Removed
// object must stay removed after a kill -9 restart, even though the WAL
// still holds its observations — the tombstone erases them on replay.
func TestRemoveDurableSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus-keep", 1, 4, 37)
	ingest(t, s, "bus-gone", 2, 4, 37)
	if err := s.Remove("bus-gone"); err != nil {
		t.Fatal(err)
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.Now("bus-gone"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("removed object resurrected after crash: %v", err)
	}
	st, err := back.Stats("bus-keep")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != 4*period {
		t.Errorf("survivor lost points: %d, want %d", st.Points, 4*period)
	}
}

// TestRemoveDurableSurvivesCheckpoint closes the store gracefully (final
// checkpoint) and requires the snapshot itself to have dropped the
// removed object.
func TestRemoveDurableSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus-keep", 1, 3, 41)
	ingest(t, s, "bus-gone", 2, 3, 41)
	if err := s.Remove("bus-gone"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.Now("bus-gone"); !errors.Is(err, ErrUnknownObject) {
		t.Errorf("removed object resurrected from snapshot: %v", err)
	}
	if _, err := back.Stats("bus-keep"); err != nil {
		t.Errorf("survivor missing: %v", err)
	}
}

// TestRemoveDurableRecreate removes an object and re-creates it under
// the same id before crashing: replay must apply the tombstone, then
// rebuild only the fresh history whose offsets restarted at zero.
func TestRemoveDurableRecreate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus", 1, 3, 37)
	if err := s.Remove("bus"); err != nil {
		t.Fatal(err)
	}
	fresh := walPoints(900, 25)
	if err := s.ObserveBatch("bus", fresh); err != nil {
		t.Fatal(err)
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	st, err := back.Stats("bus")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != len(fresh) {
		t.Errorf("recreated object has %d points, want %d (old history leaked in)", st.Points, len(fresh))
	}
}

// TestRemoveReplayGapBeforeTombstone hand-crafts the nastiest recovery:
// a crash lands between a checkpoint's snapshot write and its segment
// reclaim, so replay walks a frozen segment holding pre-tombstone
// records whose offsets point past the (newer) snapshot's track. Those
// gaps must be skipped — the tombstone erases them anyway — while the
// post-tombstone records rebuild the fresh object.
func TestRemoveReplayGapBeforeTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Old life: 2 periods in the snapshot, one more period only in the
	// WAL — replayed records at offsets 120..179.
	ingest(t, s, "bus", 1, 2, 37)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingestMore(t, s, "bus", 1, 2, 3)
	// Death and rebirth: tombstone, then a short fresh track at offset 0.
	if err := s.Remove("bus"); err != nil {
		t.Fatal(err)
	}
	fresh := walPoints(700, 30)
	if err := s.ObserveBatch("bus", fresh); err != nil {
		t.Fatal(err)
	}
	// A checkpoint that dies between its manifest commit and the reclaim
	// (the second consult of the manifest fault point): the snapshot now
	// holds only the 30-point fresh track, but the frozen segment with
	// offset-120..179 records (and the tombstone) is still on disk.
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

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("recovery rejected pre-tombstone offset gap: %v", err)
	}
	defer back.Close()
	st, err := back.Stats("bus")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != len(fresh) {
		t.Errorf("recovered %d points, want %d", st.Points, len(fresh))
	}
}

// TestRemoveDuringSegmentWriteStaysOpenable: a Remove that lands between a
// checkpoint listing a shard's objects and encoding them must not leave a
// segment that promises more records than it holds — the checkpoint commits,
// and the directory must open. The removed object may ride along in the
// segment; its tombstone, in the WAL segment the checkpoint did not reclaim,
// erases it again at replay.
func TestRemoveDuringSegmentWriteStaysOpenable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Two objects in one shard, and nothing anywhere else: the checkpoint
	// writes exactly one segment.
	stays, goes := "obj-0", ""
	for i := 1; goes == ""; i++ {
		if id := fmt.Sprintf("obj-%d", i); shardIndex(id) == shardIndex(stays) {
			goes = id
		}
	}
	for _, id := range []string{stays, goes} {
		if err := s.ObserveBatch(id, walPoints(0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	// The segment write consults the disk-full point after it has listed
	// the shard (and after every shard passed the snapshot-shard point);
	// the tombstone's own WAL append consults it again, hence the latch.
	var armed, fired atomic.Bool
	s.SetFaultHook(func(op faultinject.Op) error {
		switch {
		case op == faultinject.OpSnapshotShard:
			armed.Store(true)
		case op == faultinject.OpDiskFull && armed.Load() && fired.CompareAndSwap(false, true):
			if err := s.Remove(goes); err != nil {
				t.Errorf("remove inside the segment write: %v", err)
			}
		}
		return nil
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !fired.Load() {
		t.Fatal("the hook never reached the segment write")
	}
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("the directory a racing Remove left does not open: %v", err)
	}
	defer back.Close()
	if got := back.Objects(); !reflect.DeepEqual(got, []string{stays}) {
		t.Errorf("after replay the store holds %v, want only %q", got, stays)
	}
}

// TestRemoveRacingObserve hammers Remove against concurrent observers:
// every acknowledged post-remove observation must land on the re-created
// object, never on the tombstoned one, and a crash replay must agree.
func TestRemoveRacingObserve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	pts := walPoints(0, 2)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if err := s.ObserveBatch("bus", pts); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 50; i++ {
		if err := s.Remove("bus"); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	crash(s)
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("replay after remove/observe race: %v", err)
	}
	back.Close()
}

// TestRemoveDuringTrainLeavesNoIndexGhost: a Remove racing an object's
// first train waits for it — both take the object's ingest lock — so the
// train's install cannot re-bin fleet-index entries for an object already
// removed, whose id may belong to a successor by then (stale entries once
// overwrote a successor's and, when either side left the shared cell, tore
// the other's cell map out from under it: "assignment to entry in nil map"
// in spatial.Update, seen as a rare serve-hammer failure at GOMAXPROCS=1).
// Afterwards the index must equal a scan.
func TestRemoveDuringTrainLeavesNoIndexGhost(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 4, FleetIndex: &spatial.Config{CellSize: 200}})
	defer s.Close()
	everywhere := hpm.Rect{Min: hpm.Pt(-1e9, -1e9), Max: hpm.Pt(1e9, 1e9)}
	horizons := []int{5, 100}
	for _, h := range horizons { // make both buckets live before the train
		if _, err := queryRange(s, everywhere, h); err != nil {
			t.Fatal(err)
		}
	}
	entered, release := parkTrain(s)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = period
	spec.SubTrajectories = 5
	tr := hpm.GenerateDataset(spec)
	observed := make(chan error, 1)
	go func() { observed <- s.ObserveBatch("bike", tr.Slice(0, 4*period)) }()
	<-entered
	removed := make(chan error, 1)
	go func() { removed <- s.Remove("bike") }()
	select {
	case err := <-removed:
		t.Fatalf("Remove returned while the object's train was parked: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-observed; err != nil {
		t.Fatal(err)
	}
	if err := <-removed; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats("bike"); !errors.Is(err, ErrUnknownObject) {
		t.Fatalf("object still there after Remove: %v", err)
	}
	if err := s.ObserveBatch("bike", tr.Slice(4*period, 4*period+5)); err != nil { // the successor
		t.Fatal(err)
	}
	for _, h := range horizons {
		got, err := queryRange(s, everywhere, h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.ScanRange(everywhere, h)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(got) != 1 {
			t.Errorf("horizon %d: index %+v\nscan %+v", h, got, want)
		}
	}
}
