package store

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"hpm"
)

// TestShardRouting checks, across many ids, that each lands in the shard
// it hashes to, that the shards hold each once, and that Objects lists
// them all.
func TestShardRouting(t *testing.T) {
	s, err := New(Options{Config: hpm.Config{Period: period}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("obj-%03d", i)
		if err := s.ObserveBatch(id, []hpm.Point{hpm.Pt(1, 2)}); err != nil {
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
		if id := fmt.Sprintf("obj-%03d", i); s.shard(id).objects[id] == nil {
			t.Fatalf("%s is not in the shard it hashes to", id)
		}
	}
}

// TestShardHammer drives mixed fleet traffic — observes, two-object fleet
// batches, predictions, stats and listings across many ids, with first
// trains and extends landing mid-traffic —
// from many goroutines. Run under -race it pins the shard-map locking:
// distinct objects only share a shard's RWMutex, and fleet-wide walks
// (Objects, Health) interleave with writers safely.
func TestShardHammer(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
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
						continue // not observed yet
					}
					if _, err := predict(s, id, now+10, 1); err != nil {
						continue // untrained / invalid time are expected here
					}
				case 3: // stats + fleet walks
					s.Stats(id)
					s.Objects()
					s.Health()
				default: // a fleet batch that also locks a second object
					off := rng.Intn(len(pts) - 8)
					other := fmt.Sprintf("obj-%02d", rng.Intn(ids))
					if err := s.ObserveAll([]Observation{{ID: id, Points: pts[off : off+4]}, {ID: other, Points: pts[off+4 : off+8]}}); err != nil {
						errs <- err
						return
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
