package store

import (
	"bytes"
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
// train or extend (whose outlier state is deliberately not persisted)
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
// immediately, not only after the next minted region re-folds it.
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
// order must neither fold a chain nor answer down the markov route.
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
// under the read lock), the first train's install (which re-folds the chain
// from the whole track) and extend-triggered chain rebuilds against one
// object. Run under -race it pins the chain's place in the store's lock
// envelope.
func TestMarkovHammerConcurrent(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 27)
	spec.Period = period
	spec.SubTrajectories = 8
	pts := hpm.GenerateDataset(spec).Points()
	if err := s.ObserveBatch("bike", pts[:2*period]); err != nil {
		t.Fatal(err)
	}
	more := pts[2*period:]

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

	// Writer: six more periods in small batches. The first completes
	// MinTrainPeriods, so the trained predictor is installed (and the chain
	// re-folded) mid-traffic; the rest extend it.
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

// TestInstallFoldsUnseenPoints is the chain's twin at a first train: the
// trainer folds its chain over the periods it mines, and the install folds
// on only the points it did not see when the two clocks agree, or refolds
// the retained track when they do not. One batch carries ten periods and
// all but one point of the eleventh, so the install has a tail to fold and
// no Extend follows it; the installed chain must then equal a fresh
// RebuildMarkov over the retained track, byte for byte. RetainPeriods 8
// moves the base at the install, which takes the full rebuild.
func TestInstallFoldsUnseenPoints(t *testing.T) {
	for _, tc := range []struct {
		name          string
		retain        int
		wantBaseMoved bool
	}{
		{"retain 0", 0, false},
		{"retain 8", 8, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := hpm.Config{Period: period, RetainPeriods: tc.retain}
			s := testStore(t, Options{Config: cfg, MinTrainPeriods: 10})
			defer s.Close()
			spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 5)
			spec.Period = period
			spec.SubTrajectories = 11
			pts := hpm.GenerateDataset(spec).Points()
			if err := s.ObserveBatch("bus", pts[:11*period-1]); err != nil {
				t.Fatal(err)
			}
			if st, _ := s.Stats("bus"); !st.Trained || st.Modeled != 10 {
				t.Fatalf("state after the batch: %+v, want trained at modeled 10", st)
			}

			installed := chainBytes(t, s, "bus")
			obj, _ := s.get("bus", false)
			obj.mu.Lock()
			if moved := obj.base != 0; moved != tc.wantBaseMoved {
				t.Errorf("base %d after the install: moved %v, want %v", obj.base, moved, tc.wantBaseMoved)
			}
			obj.predictor.Model().RebuildMarkov(obj.base, obj.track)
			obj.mu.Unlock()
			if rebuilt := chainBytes(t, s, "bus"); !bytes.Equal(installed, rebuilt) {
				t.Errorf("installed chain (%d bytes) differs from a rebuild over the retained track (%d bytes)", len(installed), len(rebuilt))
			}
		})
	}
}
