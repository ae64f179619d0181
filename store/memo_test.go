package store

import (
	"context"
	"slices"
	"testing"

	"hpm"
)

// checkAnswers asks id at the absolute times tqs twice over — the second
// round is served from the memo — through all four memoized calls, and
// holds every answer to a fresh Predictor.PredictBatch over the object's
// current window.
func checkAnswers(t *testing.T, s *Store, id string, tqs []int) {
	t.Helper()
	const k = 3
	obj, err := s.get(id, false)
	if err != nil {
		t.Fatal(err)
	}
	obj.mu.RLock()
	now := obj.base + len(obj.track) - 1
	want, err := obj.predictor.PredictBatch(s.recentLocked(obj), tqs, k)
	obj.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	horizons := make([]int, len(tqs))
	for i, tq := range tqs {
		horizons[i] = tq - now
	}
	ctx := context.Background()
	for round := 0; round < 2; round++ {
		batch, err := s.PredictBatchContext(context.Background(), id, tqs, k)
		if err != nil {
			t.Fatal(err)
		}
		_, ahead, err := s.PredictBatchAheadContext(ctx, id, horizons, k)
		if err != nil {
			t.Fatal(err)
		}
		for i, tq := range tqs {
			point, err := predict(s, id, tq, k)
			if err != nil {
				t.Fatal(err)
			}
			_, pointAhead, err := predictAhead(s, id, horizons[i], k)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string][]hpm.Prediction{
				"PredictBatch": batch[i], "PredictBatchAhead": ahead[i], "Predict": point, "PredictAhead": pointAhead,
			} {
				if !slices.Equal(got, want[i]) {
					t.Fatalf("round %d, %s at %d (now %d): %v, the model says %v", round, name, tq, now, got, want[i])
				}
			}
		}
	}
}

// TestMemoMatchesModelAfterEveryWrite fills the memo at fixed query times
// and then runs each write path in turn — the background first train's
// install, a single observe, a bulk observe with a repeated id, a period
// boundary that runs Extend, and Open over a WAL tail — asking the same
// times again after each: every answer must be the model's on the window
// the write left. The times move once, past the track, before the tail.
func TestMemoMatchesModelAfterEveryWrite(t *testing.T) {
	s := durableStore(t, Options{MinTrainPeriods: 3})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 21)
	spec.Period = period
	spec.SubTrajectories = 8
	pts := hpm.GenerateDataset(spec).Points()
	at := 4*period + period/2
	if err := s.ObserveBatch("bike", pts[:at]); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tqs := []int{at + 64, at + 89, at + 149}
	checkAnswers(t, s, "bike", tqs) // after the first train's install

	if err := s.ObserveBatch("bike", []hpm.Point{pts[at]}); err != nil {
		t.Fatal(err)
	}
	at++
	checkAnswers(t, s, "bike", tqs)

	if err := s.ObserveAll([]Observation{
		{ID: "bike", Points: pts[at : at+1]},
		{ID: "other", Points: pts[:2]},
		{ID: "bike", Points: pts[at+1 : at+3]},
	}); err != nil {
		t.Fatal(err)
	}
	at += 3
	checkAnswers(t, s, "bike", tqs)

	before, _ := s.Stats("bike")
	end := (at/period+1)*period + 2
	if err := s.ObserveBatch("bike", pts[at:end]); err != nil {
		t.Fatal(err)
	}
	at = end
	if after, _ := s.Stats("bike"); after.Modeled != before.Modeled+1 {
		t.Fatalf("the period boundary did not extend the model: modeled %d -> %d", before.Modeled, after.Modeled)
	}
	checkAnswers(t, s, "bike", tqs)

	// The tail after the checkpoint crosses a period boundary, so replay
	// runs an Extend too.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tqs = []int{at + 2*period, at + 2*period + 25, at + 2*period + 85}
	checkAnswers(t, s, "bike", tqs)
	if err := s.ObserveBatch("bike", pts[at:at+period+1]); err != nil {
		t.Fatal(err)
	}
	checkAnswers(t, s, "bike", tqs)
	crash(s)
	back, err := Open(s.dir, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { crash(back) })
	if back.replayed == 0 {
		t.Fatal("Open replayed no WAL record")
	}
	checkAnswers(t, back, "bike", tqs)
}

// TestMemoAnswersAreCopies scribbles over every answer it gets, from the
// model and from the memo alike, and appends to the memo's: the next answer
// must be unchanged, and each repeat counts as reused, one per query time.
func TestMemoAnswersAreCopies(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 23, 4)
	now, _ := s.Now("bike")
	tq, tqs := now+30, []int{now + 5, now + 30, now + 90}
	var firstPoint []hpm.Prediction
	var firstBatch [][]hpm.Prediction
	const rounds = 3
	for round := 0; round < rounds; round++ {
		point, err := predict(s, "bike", tq, 3)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.PredictBatchContext(context.Background(), "bike", tqs, 3)
		if err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			firstPoint = slices.Clone(point)
			firstBatch = cloneAnswers(batch)
		} else {
			if !slices.Equal(point, firstPoint) {
				t.Fatalf("round %d: point answer %v, first %v", round, point, firstPoint)
			}
			for i := range batch {
				if !slices.Equal(batch[i], firstBatch[i]) {
					t.Fatalf("round %d: batch answer %d %v, first %v", round, i, batch[i], firstBatch[i])
				}
			}
			batch[0] = append(batch[0], hpm.Prediction{Score: -1})
			if !slices.Equal(batch[1], firstBatch[1]) {
				t.Fatalf("round %d: appending to the first time's answer changed the second's: %v", round, batch[1])
			}
		}
		for i := range point {
			point[i].Location = hpm.Point{X: -1e9, Y: -1e9}
		}
		for _, preds := range batch {
			for i := range preds {
				preds[i].Location = hpm.Point{X: -1e9, Y: -1e9}
			}
		}
	}
	if got, want := s.FleetStats().AnswersReused, uint64((rounds-1)*(1+len(tqs))); got != want {
		t.Errorf("answers reused = %d, want %d", got, want)
	}
}

// TestMemoHoldsAtMostCap asks one object more distinct times than the memo
// holds: the oldest answers go, the newest stay.
func TestMemoHoldsAtMostCap(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 25, 4)
	now, _ := s.Now("bike")
	for i := 1; i <= memoCap+2; i++ {
		if _, err := predict(s, "bike", now+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	obj, _ := s.get("bike", false)
	m := obj.memo.Load()
	if len(*m) != memoCap {
		t.Fatalf("memo holds %d entries, want %d", len(*m), memoCap)
	}
	if _, ok := m.find([]int{now + 1}, 1); ok {
		t.Error("the oldest answer was kept")
	}
	if _, ok := m.find([]int{now + memoCap + 2}, 1); !ok {
		t.Error("the newest answer was dropped")
	}
}

// TestPointQueryReusesBatchOfOne: a point query is a batch of one time, so
// the memo entry a one-time batch left at the same (tq, k) answers it
// without the model, and the same time at another k is asked of the model.
func TestPointQueryReusesBatchOfOne(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 13, 4)
	now, _ := s.Now("bike")
	tq := now + 10
	obj, err := s.get("bike", false)
	if err != nil {
		t.Fatal(err)
	}
	obj.mu.RLock()
	want, err := obj.predictor.PredictBatch(s.recentLocked(obj), []int{tq}, 3)
	obj.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictBatchContext(context.Background(), "bike", []int{tq}, 3); err != nil {
		t.Fatal(err)
	}
	before := s.FleetStats()
	got, err := predict(s, "bike", tq, 3)
	if err != nil {
		t.Fatal(err)
	}
	hit := s.FleetStats()
	if hit.AnswersReused != before.AnswersReused+1 || hit.Queries != before.Queries {
		t.Errorf("point query after its batch of one: reused %d -> %d, model queries %d -> %d; want a memo hit",
			before.AnswersReused, hit.AnswersReused, before.Queries.Queries, hit.Queries.Queries)
	}
	if !slices.Equal(got, want[0]) {
		t.Errorf("memo answer %v, the model says %v", got, want[0])
	}
	if _, err := predict(s, "bike", tq, 1); err != nil {
		t.Fatal(err)
	}
	if miss := s.FleetStats(); miss.AnswersReused != hit.AnswersReused || miss.Queries.Queries != hit.Queries.Queries+1 {
		t.Errorf("another k: reused %d -> %d, model queries %d -> %d; want a model run",
			hit.AnswersReused, miss.AnswersReused, hit.Queries.Queries, miss.Queries.Queries)
	}
}
