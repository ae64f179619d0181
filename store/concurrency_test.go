package store

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hpm"
)

// TestPredictObserveHammer drives heavy mixed traffic — concurrent point
// predictions, batch predictions, range queries, stats reads and a
// continuous observation stream that extends the model every period —
// against one object, while a second object streams up to and past its
// first train, which lands mid-traffic under readers of both. Run under
// -race it pins the lock-free read path: queries share the object's read
// lock and the engine's counters are atomic, so nothing here may race.
// Counter totals are checked afterwards: every answer is either a model
// evaluation or a reuse from the object's memo. One more reader holds a
// query time while the writer overtakes it: once a point at or past that
// time is acknowledged, the time is no longer ahead of the object, and an
// answer for it could only be one remembered from before the write.
func TestPredictObserveHammer(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 9, 4)

	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 9)
	spec.Period = period
	spec.SubTrajectories = 8
	more := hpm.GenerateDataset(spec).Slice(4*period, 8*period)
	freshSpec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 10)
	freshSpec.Period = period
	freshSpec.SubTrajectories = 4
	fresh := hpm.GenerateDataset(freshSpec).Points()
	if err := s.ObserveBatch("fresh", fresh[:15]); err != nil {
		t.Fatal(err)
	}

	const readers = 8
	const perReader = 50
	var predicted atomic.Int64 // queries that reached a trained predictor
	var freshAnswered atomic.Int64
	var held atomic.Int64   // answers the held-time reader got
	var acked atomic.Int64  // bike's latest acknowledged time
	var written atomic.Bool // bike's writer is done
	acked.Store(4*period - 1)
	var wg sync.WaitGroup
	errs := make(chan error, readers*4+4)

	// The held time is answered once before the writer can pass it, and
	// asked again at least once after the writer is done.
	heldTq := 4*period - 1 + 20
	if _, err := predict(s, "bike", heldTq, 1); err == nil {
		held.Add(1)
	}

	// Writers: stream four more periods of bike in small batches, so
	// extends run mid-traffic, and four periods of fresh, so its first
	// train is scheduled at the third and its predictor installed while
	// readers query it.
	for id, pts := range map[string][]hpm.Point{"bike": more, "fresh": fresh[15:]} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if id == "bike" {
				defer written.Store(true)
			}
			for i := 0; i < len(pts); i += 15 {
				end := min(i+15, len(pts))
				if err := s.ObserveBatch(id, pts[i:end]); err != nil {
					errs <- err
					return
				}
				if id == "bike" {
					acked.Store(int64(4*period + end - 1))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			stopped := written.Load()
			floor := acked.Load()
			if _, err := predict(s, "bike", heldTq, 1); err == nil {
				held.Add(1)
				if int64(heldTq) <= floor {
					errs <- fmt.Errorf("answered for time %d after the point at %d was acknowledged", heldTq, floor)
					return
				}
			}
			if stopped {
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				// The writer may advance the track between Now and the
				// query, invalidating the query time; such calls fail
				// validation before touching any counter, so retrying
				// with a fresh now keeps the totals below exact.
				for {
					now, err := s.Now("bike")
					if err != nil {
						errs <- err
						return
					}
					switch r % 4 {
					case 0: // near: FQP path
						_, err = predict(s, "bike", now+20, 1)
					case 1: // distant: BQP path
						_, err = predict(s, "bike", now+80, 1)
					case 2: // batch across both paths
						_, err = s.PredictBatchContext(context.Background(), "bike", []int{now + 20, now + 80}, 2)
					default: // range + stats read, and a query of fresh
						_, err = s.PredictRangeContext(context.Background(), "bike", now+20, now+24)
						if _, serr := s.Stats("bike"); serr != nil {
							errs <- serr
							return
						}
						_, _, ferr := predictAhead(s, "fresh", 10, 1)
						if ferr != nil && !errors.Is(ferr, ErrUntrained) {
							errs <- ferr
							return
						}
						if ferr == nil {
							freshAnswered.Add(1)
						}
					}
					if err != nil && (strings.Contains(err.Error(), "not after current time") ||
						strings.Contains(err.Error(), "invalid for current time")) {
						continue
					}
					if err != nil {
						errs <- err
						return
					}
					break
				}
				predicted.Add(1)
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	if predicted.Load() != readers*perReader {
		t.Fatalf("only %d of %d reader iterations completed", predicted.Load(), readers*perReader)
	}
	if st, _ := s.Stats("fresh"); !st.Trained || st.Modeled != 4 {
		t.Errorf("fresh after its first train and catch-up: %+v", st)
	}

	// Every Predict/PredictBatch answer must appear in the per-object
	// counters, which survive the extends the writer triggered, or in the
	// store's reuse counter. Readers 0,1 ask 1 time per iteration, reader 2
	// asks 2 (a 2-time batch), reader 3 asks bike none (PredictRange is
	// uncounted) and fresh one, when trained.
	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	fst, err := s.Stats("fresh")
	if err != nil {
		t.Fatal(err)
	}
	perGroup := perReader * (readers / 4)
	want := perGroup*2 + perGroup*2 + int(held.Load()) // readers 0+1, reader group 2's batches, the held time
	reused := int(s.FleetStats().AnswersReused)
	if got := st.Queries.Queries + fst.Queries.Queries + reused; got != want+int(freshAnswered.Load()) {
		t.Errorf("bike queries %d + fresh queries %d + reused %d = %d, want %d + %d fresh (stats: %+v)",
			st.Queries.Queries, fst.Queries.Queries, reused, got, want, freshAnswered.Load(), st.Queries)
	}
	sum := st.Queries.Forward + st.Queries.Backward + st.Queries.Markov + st.Queries.Fallback + st.Queries.Unanswered
	if st.Queries.Queries != sum {
		t.Errorf("partition identity violated: %+v", st.Queries)
	}
}

// TestStatsSurviveRetrain: a trained object is extended by every later
// period, never retrained, so its predictor — and with it the query
// counters it holds — lives as long as the object: queries answered before
// a period completes still appear in the object's stats afterwards.
func TestStatsSurviveRetrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 11, 3)
	p, _ := s.Predictor("bike")
	now, _ := s.Now("bike")
	const before = 4
	for i := 0; i < before; i++ {
		if _, err := predict(s, "bike", now+5+i, 1); err != nil {
			t.Fatal(err)
		}
	}

	// One more period is absorbed by an Extend of the same predictor.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 11)
	spec.Period = period
	spec.SubTrajectories = 4
	more := hpm.GenerateDataset(spec).Slice(3*period, 4*period)
	if err := s.ObserveBatch("bike", more); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	if cur, _ := s.Predictor("bike"); cur != p {
		t.Fatal("a completed period replaced the predictor")
	}
	now, _ = s.Now("bike")
	if _, err := predict(s, "bike", now+5, 1); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Queries != before+1 {
		t.Errorf("queries after extend = %d, want %d (stats: %+v)", st.Queries.Queries, before+1, st.Queries)
	}
}

// TestStorePredictBatchMatchesPredict checks the store-level batch API
// returns exactly what per-time Predicts would, on a quiet store.
func TestStorePredictBatchMatchesPredict(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 13, 4)
	now, _ := s.Now("bike")
	tqs := []int{now + 3, now + 10, now + 80}
	batch, err := s.PredictBatchContext(context.Background(), "bike", tqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(tqs) {
		t.Fatalf("batch has %d entries, want %d", len(batch), len(tqs))
	}
	for i, tq := range tqs {
		want, err := predict(s, "bike", tq, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("tq=%d: %d vs %d predictions", tq, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Errorf("tq=%d pred %d: %+v != %+v", tq, j, batch[i][j], want[j])
			}
		}
	}
	if _, err := s.PredictBatchContext(context.Background(), "ghost", tqs, 1); err == nil {
		t.Error("unknown object accepted")
	}
}
