package hpa

import (
	"testing"

	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/trajectory"
)

func TestPredictBatchCountsStatsPerTime(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 2, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	if _, err := eng.PredictBatch(recent, []int{2, 5, 8}, 1); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Queries != 3 || s.Forward != 1 || s.Backward != 2 {
		t.Errorf("stats = %+v, want 3 queries, 1 forward, 2 backward", s)
	}
}

func TestPredictBatchFitsFallbackOnce(t *testing.T) {
	fits := 0
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function {
			fits++
			return motion.NewLinear(nil)
		}})
	// A recent window far from every frequent region: no pattern can
	// answer, every time needs the fallback.
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	batch, err := eng.PredictBatch(far, []int{2, 3, 4, 5, 6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fits != 1 {
		t.Errorf("fallback constructed %d times for a 5-time batch, want 1", fits)
	}
	for i, preds := range batch {
		if len(preds) != 1 || preds[0].Source != SourceMotion {
			t.Fatalf("time %d: %+v, want one motion prediction", i, preds)
		}
	}
	if s := eng.Stats(); s.Fallback != 5 {
		t.Errorf("fallback count = %d, want 5", s.Fallback)
	}
}

func TestPredictBatchValidation(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3})
	recent := []trajectory.TimedPoint{{T: 1, Loc: centers["home"]}}
	if _, err := eng.PredictBatch(nil, []int{2}, 1); err == nil {
		t.Error("empty recent accepted")
	}
	if _, err := eng.PredictBatch(recent, []int{2, 1}, 1); err == nil {
		t.Error("query time before current time accepted")
	}
	out, err := eng.PredictBatch(recent, nil, 1)
	if err != nil || out != nil {
		t.Errorf("empty batch: %v, %v", out, err)
	}
}

func TestPredictBatchNoFallbackLeavesNil(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100}) // no NewMotion
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	batch, err := eng.PredictBatch(far, []int{2, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, preds := range batch {
		if preds != nil {
			t.Errorf("time %d: got %+v, want nil", i, preds)
		}
	}
	if s := eng.Stats(); s.Unanswered != 2 {
		t.Errorf("unanswered = %d, want 2", s.Unanswered)
	}
}
