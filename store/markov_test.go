package store

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"hpm"
)

// chainBytes returns the object's Markov chain in its canonical encoding —
// the byte-identity witness the durability tests compare.
func chainBytes(t *testing.T, s *Store, id string) []byte {
	t.Helper()
	obj, err := s.get(id, false)
	if err != nil {
		t.Fatal(err)
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if obj.predictor == nil {
		t.Fatalf("%s has no trained predictor", id)
	}
	return obj.predictor.Model().EncodeMarkov()
}

// TestMarkovSnapshotRoundTrip: a checkpointed chain must come back from
// disk bit-identical — the snapshot carries the chain blob itself, not a
// recipe for rebuilding it, so window state and escape counts survive.
func TestMarkovSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus", 21, 4, 60)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := chainBytes(t, s, "bus")
	if len(want) == 0 {
		t.Fatal("trained object has an empty chain encoding")
	}
	if err := s.Close(); err != nil { // checkpoints on the way out
		t.Fatal(err)
	}

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := chainBytes(t, back, "bus"); !bytes.Equal(want, got) {
		t.Errorf("chain differs after snapshot round trip: %d vs %d bytes", len(want), len(got))
	}
	now, err := back.Now("bus")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.PredictVia("bus", hpm.PathMarkov, now+10, 1); err != nil {
		t.Errorf("markov predict from restored chain: %v", err)
	}
}

// TestMarkovWALReplayEquivalence: kill the process with a WAL tail past
// the last checkpoint, reopen, and require the replayed chain to equal
// the crashed process's — replay folds the tail into the chain exactly
// like the live observe path did. The tail stays under one period so no
// retrain or extend (whose outlier state is deliberately not persisted)
// fires inside the replay window.
func TestMarkovWALReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr := feed(t, s, "bus", 23, 4)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// WAL-only tail: half a period in small batches, no checkpoint after.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 23)
	spec.Period = period
	spec.SubTrajectories = 5
	tail := hpm.GenerateDataset(spec).Slice(tr.Len(), tr.Len()+period/2)
	for off := 0; off < len(tail); off += 7 {
		end := off + 7
		if end > len(tail) {
			end = len(tail)
		}
		if err := s.ObserveBatch("bus", tail[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	want := chainBytes(t, s, "bus")
	crash(s)

	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if h := back.Health(); h.WALReplayed == 0 {
		t.Fatalf("nothing replayed from the WAL: %+v", h)
	}
	if got := chainBytes(t, back, "bus"); !bytes.Equal(want, got) {
		t.Errorf("chain differs after crash + WAL replay: %d vs %d bytes", len(want), len(got))
	}
}

// TestMarkovRebuiltFromEmptyChain: a record written while the markov path
// was off carries an empty chain blob; loading it with the path on must
// rebuild the chain from the restored track so the path answers
// immediately, not only after the next retrain.
func TestMarkovRebuiltFromEmptyChain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bus", 23, 4)
	obj, _ := s.get("bus", false)
	snap, err := snapshotObject("bus", obj)
	if err != nil || len(snap.chain) == 0 {
		t.Fatalf("no chain to drop: %v", err)
	}
	snap.chain = nil
	body, shard := recordSegment(t, snap)
	back, err := decodeSealed(t, body, shard, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := chainBytes(t, back, "bus"); len(got) == 0 {
		t.Fatal("a record without a chain restored an empty one: rebuild from track did not run")
	}
	now, err := back.Now("bus")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := back.PredictVia("bus", hpm.PathMarkov, now+10, 1); err != nil {
		t.Errorf("markov predict after the rebuild: %v", err)
	}
}

// TestMarkovDisabledOmitsPath: a store configured with a negative markov
// order must neither fold a chain nor offer the path to routing.
func TestMarkovDisabledOmitsPath(t *testing.T) {
	s := testStore(t, Options{
		Config:          hpm.Config{Period: period, MarkovOrder: -1},
		MinTrainPeriods: 3,
	})
	defer s.Close()
	feed(t, s, "bike", 25, 4)
	if got := chainBytes(t, s, "bike"); len(got) != 0 {
		t.Errorf("disabled markov path still encoded a %d-byte chain", len(got))
	}
	now, _ := s.Now("bike")
	preds, err := s.PredictVia("bike", hpm.PathMarkov, now+10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range preds {
		if p.Path == hpm.PathMarkov {
			t.Errorf("disabled markov path answered a query: %+v", p)
		}
	}
}

// TestMarkovHammerConcurrent drives concurrent observes (which fold the
// chain under the object's write lock), markov predictions (which walk it
// under the read lock) and retrain-triggered chain rebuilds against one
// object. Run under -race it pins the chain's place in the store's lock
// envelope.
func TestMarkovHammerConcurrent(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 1})
	feed(t, s, "bike", 27, 4)

	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 27)
	spec.Period = period
	spec.SubTrajectories = 8
	more := hpm.GenerateDataset(spec).Slice(4*period, 8*period)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				now, err := s.Now("bike")
				if err != nil {
					continue
				}
				// Errors are expected: the writer can advance the track
				// between Now and the query. The hammer is about locking.
				s.PredictVia("bike", hpm.PathMarkov, now+1+i%100, 1)
				if i%10 == 0 {
					if _, err := s.Stats("bike"); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}

	// Writer: four more periods in small batches; RetrainEvery=1 swaps the
	// predictor (and rebuilds the chain) repeatedly mid-traffic.
	for off := 0; off < len(more); off += 11 {
		end := off + 11
		if end > len(more) {
			end = len(more)
		}
		if err := s.ObserveBatch("bike", more[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := chainBytes(t, s, "bike"); len(got) == 0 {
		t.Error("chain empty after hammer")
	}
}

// TestObserveAllFoldsOnceAcrossSwap: a background retrain that swaps in
// while a fleet batch is mid-apply re-folds the chain from a track that
// already holds the batch, so the batch's own fold must not run after it.
// Forty trained objects cross a period (one Extend each) ahead of z in id
// order; z's retrain is parked until z's append is visible, then released
// into that window. The live chain must equal a from-scratch re-fold.
func TestObserveAllFoldsOnceAcrossSwap(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 2})
	defer s.Close()
	bike := func(seed int64, from, to int) []hpm.Point {
		spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
		spec.Period = period
		spec.SubTrajectories = 6
		return hpm.GenerateDataset(spec).Slice(from, to)
	}
	var batch []Observation
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("a%02d", i)
		feed(t, s, id, int64(100+i), 3)
		batch = append(batch, Observation{ID: id, Points: bike(int64(100+i), 3*period, 4*period)})
	}
	feed(t, s, "z", 99, 3)

	entered := make(chan struct{})
	release := make(chan struct{})
	s.beforeTrain = func() {
		close(entered)
		<-release
	}
	// Two more periods trip RetrainEvery: z's retrain is scheduled and parks.
	if err := s.ObserveBatch("z", bike(99, 3*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	<-entered
	tail := bike(99, 5*period, 5*period+9)
	batch = append(batch, Observation{ID: "z", Points: tail})
	go func() {
		for {
			if now, _ := s.Now("z"); now == 5*period+len(tail)-1 {
				close(release)
				return
			}
			runtime.Gosched()
		}
	}()
	if err := s.ObserveAll(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	live := chainBytes(t, s, "z")
	obj, _ := s.get("z", false)
	obj.mu.Lock()
	obj.predictor.Model().RebuildMarkov(obj.base, obj.track)
	obj.mu.Unlock()
	if refold := chainBytes(t, s, "z"); !bytes.Equal(live, refold) {
		t.Errorf("live chain (%d bytes) differs from a re-fold of the track (%d bytes): points folded twice", len(live), len(refold))
	}
}
