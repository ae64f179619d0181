package hpa

import (
	"slices"
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

// TestPredictBatchAsksChainOnce: a batch whose times all get past the
// patterns asks the chain once, with every one of them in input order; the
// motion function answers the times the chain declines, and each time
// counts once, by the path that answered it. A query down PathMarkov is a
// batch of one and asks once too; one down PathFallback never asks.
func TestPredictBatchAsksChainOnce(t *testing.T) {
	var asked [][]int
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) },
		Markov: func(recent []trajectory.TimedPoint, tqs []int, out []Prediction) {
			asked = append(asked, slices.Clone(tqs))
			for i, tq := range tqs {
				if tq%2 == 0 {
					out[i] = Prediction{Location: geom.Pt(float64(tq), 0), PatternRef: -1,
						Source: SourceMarkov, Path: PathMarkov, ConsequenceOffset: -1}
				}
			}
		}})
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	tqs := []int{6, 2, 3, 5, 4, 2}
	batch, err := eng.PredictBatch(far, tqs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 1 || !slices.Equal(asked[0], tqs) {
		t.Fatalf("the chain was asked %v for a batch of %v, want once", asked, tqs)
	}
	for i, tq := range tqs {
		want := SourceMotion
		if tq%2 == 0 {
			want = SourceMarkov
		}
		if p := batch[i]; len(p) != 1 || p[0].Source != want || want == SourceMarkov && p[0].Location.X != float64(tq) {
			t.Fatalf("time %d: %+v, want one %v answer", tq, p, want)
		}
	}
	if s := eng.Stats(); s.Queries != 6 || s.Markov != 4 || s.Fallback != 2 {
		t.Errorf("stats = %+v, want 6 queries, 4 markov, 2 fallback", s)
	}
	asked = nil
	for _, route := range []Path{PathMarkov, PathFallback} {
		if _, err := eng.PredictVia(route, Query{Recent: far, Tq: 4}); err != nil {
			t.Fatal(err)
		}
	}
	if len(asked) != 1 || !slices.Equal(asked[0], []int{4}) {
		t.Errorf("PathMarkov and PathFallback asked the chain %v, want [[4]]", asked)
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
