package hpa

import (
	"testing"

	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/trajectory"
)

// TestFallbackFitCachedAcrossQueries pins the fit memoization: repeated
// queries from an unchanged recent window construct the motion function
// once and answer as a fresh fit would, and the FallbackFits counter
// reports actual fits, not fallback answers.
func TestFallbackFitCachedAcrossQueries(t *testing.T) {
	fits := 0
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function {
			fits++
			return motion.NewLinear(nil)
		}})
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	// The cached fit answers as a fresh fit of the same window does.
	fresh := motion.NewLinear(nil)
	if err := fresh.Fit(far); err != nil {
		t.Fatal(err)
	}
	for tq := 2; tq < 10; tq++ {
		preds, err := eng.Predict(Query{Recent: far, Tq: tq, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := fresh.Predict(tq); len(preds) != 1 || preds[0].Location != want {
			t.Fatalf("tq=%d: cached fit answered %+v, a fresh fit %v", tq, preds, want)
		}
	}
	if fits != 1 {
		t.Errorf("8 queries from one window fitted %d times, want 1", fits)
	}
	s := eng.Stats()
	if s.Fallback != 8 || s.FallbackFits != 1 {
		t.Errorf("stats = %+v, want Fallback 8, FallbackFits 1", s)
	}

	// Advancing the window invalidates the cache.
	moved := append(far[:len(far):len(far)], trajectory.TimedPoint{T: 2, Loc: geom.Pt(9020, 9000)})
	if _, err := eng.Predict(Query{Recent: moved, Tq: 5, K: 1}); err != nil {
		t.Fatal(err)
	}
	if fits != 2 {
		t.Errorf("advanced window fitted %d times total, want 2", fits)
	}

	// Same endpoints, different geometry: the lastLoc guard refits.
	sameTimes := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9100)},
	}
	if _, err := eng.Predict(Query{Recent: sameTimes, Tq: 4, K: 1}); err != nil {
		t.Fatal(err)
	}
	if fits != 3 {
		t.Errorf("changed geometry fitted %d times total, want 3", fits)
	}
}

// TestFallbackFitCacheSharedWithBatchAndRange checks that Predict,
// PredictBatch and PredictRange all hit the same cache for one window.
func TestFallbackFitCacheSharedWithBatchAndRange(t *testing.T) {
	fits := 0
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function {
			fits++
			return motion.NewLinear(nil)
		}})
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	if _, err := eng.Predict(Query{Recent: far, Tq: 3, K: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PredictBatch(far, []int{2, 4, 6}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PredictRange(far, 2, 8); err != nil {
		t.Fatal(err)
	}
	if fits != 1 {
		t.Errorf("three entry points fitted %d times for one window, want 1", fits)
	}
	if s := eng.Stats(); s.FallbackFits != 1 {
		t.Errorf("FallbackFits = %d, want 1", s.FallbackFits)
	}
}
