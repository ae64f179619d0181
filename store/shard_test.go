package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hpm"
)

// TestShardRouting checks every id resolves to a stable shard that get()
// and Remove agree on, across many ids.
func TestShardRouting(t *testing.T) {
	s, err := New(Options{Config: hpm.Config{Period: period}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("obj-%03d", i)
		if err := s.Observe(id, hpm.Pt(1, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.Objects()); got != 200 {
		t.Fatalf("%d objects listed, want 200", got)
	}
	total := 0
	for i := range s.shards {
		total += len(s.shards[i].objects)
	}
	if total != 200 {
		t.Fatalf("shards hold %d objects, want 200", total)
	}
	for i := 0; i < 200; i++ {
		s.Remove(fmt.Sprintf("obj-%03d", i))
	}
	if got := len(s.Objects()); got != 0 {
		t.Fatalf("%d objects after removes, want 0", got)
	}
}

// TestShardHammer drives mixed fleet traffic — observes, predictions,
// stats, listings and removes across many ids, with retrains enabled —
// from many goroutines. Run under -race it pins the shard-map locking:
// distinct objects only share a shard's RWMutex, and fleet-wide walks
// (Objects, Health) interleave with writers safely.
func TestShardHammer(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 2})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 77)
	spec.Period = period
	spec.SubTrajectories = 5
	pts := hpm.GenerateDataset(spec).Points()

	const workers = 8
	const ids = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 120; i++ {
				id := fmt.Sprintf("obj-%02d", rng.Intn(ids))
				switch i % 5 {
				case 0, 1: // observe a small batch
					off := rng.Intn(len(pts) - 16)
					if err := s.ObserveBatch(id, pts[off:off+16]); err != nil {
						errs <- err
						return
					}
				case 2: // predict (untrained objects answer ErrUntrained)
					now, err := s.Now(id)
					if err != nil {
						continue // not observed yet, or removed
					}
					if _, err := s.Predict(id, now+10, 1); err != nil {
						continue // untrained / invalid time are expected here
					}
				case 3: // stats + fleet walks
					s.Stats(id)
					s.Objects()
					s.Health()
				default: // churn: remove a different id occasionally
					if rng.Intn(8) == 0 {
						s.Remove(fmt.Sprintf("obj-%02d", rng.Intn(ids)))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("close after hammer: %v", err)
	}
}
