package hpa

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

func TestPredictRangeBasics(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	preds, err := eng.PredictRange(recent, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 {
		t.Fatalf("range returned %d predictions, want 3", len(preds))
	}
	// Offset 2 has a pattern (Work); offsets 0,1 of the next period have
	// consequences too (City at offset 1) or fall back to motion.
	if preds[0].Source != SourcePattern {
		t.Errorf("t=2 source %v, want pattern", preds[0].Source)
	}
	if preds[0].Location.Dist(centers["work"]) > 10 {
		t.Errorf("t=2 predicted %v, want near work", preds[0].Location)
	}
	// Pattern predictions carry region extent and consequence offset.
	if !preds[0].Extent.IsValid() || preds[0].Extent.Area() == 0 {
		t.Errorf("pattern prediction missing extent: %+v", preds[0].Extent)
	}
	if preds[0].ConsequenceOffset != 2 {
		t.Errorf("ConsequenceOffset = %d, want 2", preds[0].ConsequenceOffset)
	}
}

func TestPredictRangeValidation(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3})
	recent := []trajectory.TimedPoint{{T: 5, Loc: centers["home"]}}
	if _, err := eng.PredictRange(nil, 6, 8); err == nil {
		t.Error("empty recent accepted")
	}
	if _, err := eng.PredictRange(recent, 5, 8); err == nil {
		t.Error("from == tc accepted")
	}
	if _, err := eng.PredictRange(recent, 8, 6); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestPredictRangeMotionFittedOnce(t *testing.T) {
	fits := 0
	countingMotion := func() motion.Function {
		fits++
		return motion.NewLinear(nil)
	}
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, NewMotion: countingMotion})
	// Recent movements far from all regions: every timestamp falls back.
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	preds, err := eng.PredictRange(recent, 2, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 10 {
		t.Fatalf("got %d predictions", len(preds))
	}
	for i, p := range preds {
		if p.Source != SourceMotion {
			t.Errorf("pred %d source %v, want motion", i, p.Source)
		}
	}
	if fits != 1 {
		t.Errorf("motion function fitted %d times, want 1", fits)
	}
	// Motion predictions extrapolate: consecutive locations advance.
	if preds[1].Location == preds[0].Location {
		t.Error("motion range predictions did not advance")
	}
}

func TestPredictRangeNoFallbackUsesLastKnown(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100}) // no NewMotion
	last := geom.Pt(9010, 9000)
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: last},
	}
	preds, err := eng.PredictRange(recent, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		if p.Location != last {
			t.Errorf("pred %d = %v, want last known %v", i, p.Location, last)
		}
	}
}

func TestPredictRangeMixesSources(t *testing.T) {
	// Period 100 with consequences only at offsets 1 and 2: a range
	// crossing pattern-covered and uncovered offsets mixes sources.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 1000,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	_ = eng
	// Build a fresh engine whose patterns we know: reuse jane fixture via
	// janeEngine and query across offsets 1..5 with a premise at Home.
	eng2, centers := janeEngine(t, Config{Period: 100, DistantThreshold: 1000,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{{T: 0, Loc: centers["home"]}}
	preds, err := eng2.PredictRange(recent, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Source != SourcePattern || preds[1].Source != SourcePattern {
		t.Errorf("offsets 1,2 should be pattern: %v %v", preds[0].Source, preds[1].Source)
	}
	for i := 2; i < 5; i++ {
		if preds[i].Source != SourceMotion {
			t.Errorf("offset %d should be motion, got %v", i+1, preds[i].Source)
		}
	}
}

func TestForwardQueryExtentMatchesRegion(t *testing.T) {
	eng, _ := janeEngine(t, Config{DistantThreshold: 60, Weight: WeightLinear})
	preds := eng.ForwardQuery([]pattern.RegionID{0, 1}, 2, 1)
	if len(preds) != 1 {
		t.Fatal("no prediction")
	}
	if !preds[0].Extent.Contains(preds[0].Location) {
		t.Error("region extent does not contain its center")
	}
}

// TestPredictRangeEqualsPointPredicts: a trajectory is its point predicts.
// Over an engine whose every time falls to the motion function and one that
// mixes FQP, the chain and the motion function, PredictRange(from, to)[i] is
// Predict(from+i) to the last field, and a batch over the same times in
// shuffled order, repeats included, is too — so the one walk of the
// recurrence answers what a walk per time did. Then the cost: 10 001
// timestamps off the motion function used to take some fifty million steps of
// it and now take 10 001.
func TestPredictRangeEqualsPointPredicts(t *testing.T) {
	rmf := func() motion.Function { return motion.NewRMF(motion.RMFConfig{}) }
	arc := func(center geom.Point, t0 int) []trajectory.TimedPoint {
		recent := make([]trajectory.TimedPoint, 12)
		for i := range recent {
			a := 0.3 * float64(i)
			recent[i] = trajectory.TimedPoint{T: t0 + i, Loc: center.Add(geom.Pt(40*math.Cos(a), 25*math.Sin(a)))}
		}
		return recent
	}
	far, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, NewMotion: rmf})
	mixed, centers := janeEngine(t, Config{Period: 100, DistantThreshold: 1000, NewMotion: rmf,
		Markov: perTime(func(recent []trajectory.TimedPoint, tq int) (Prediction, bool) {
			return Prediction{Location: geom.Pt(float64(tq), 1), Source: SourceMarkov, Path: PathMarkov,
				PatternRef: -1, ConsequenceOffset: -1}, tq%7 == 0
		})})
	atHome := arc(centers["home"], -11) // ends at t = 0, on Home's offset
	atHome[len(atHome)-1].Loc = centers["home"]
	for name, c := range map[string]struct {
		eng      *Engine
		recent   []trajectory.TimedPoint
		from, to int
		sources  []Source
	}{
		"motion only": {far, arc(geom.Pt(9000, 9000), 0), 12, 260, []Source{SourceMotion}},
		"mixed":       {mixed, atHome, 1, 230, []Source{SourcePattern, SourceMarkov, SourceMotion}},
	} {
		preds, err := c.eng.PredictRange(c.recent, c.from, c.to)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Source]bool{}
		tqs := make([]int, 0, 2*len(preds))
		for i, p := range preds {
			seen[p.Source] = true
			one, err := c.eng.Predict(Query{Recent: c.recent, Tq: c.from + i})
			if err != nil || len(one) != 1 || !reflect.DeepEqual(p, one[0]) {
				t.Fatalf("%s: PredictRange[%d] = %+v, Predict(%d) = %+v, %v", name, i, p, c.from+i, one, err)
			}
			tqs = append(tqs, c.from+i, c.from+i/2)
		}
		for _, s := range c.sources {
			if !seen[s] {
				t.Errorf("%s: no %v answer in the range", name, s)
			}
		}
		rand.New(rand.NewSource(3)).Shuffle(len(tqs), func(i, j int) { tqs[i], tqs[j] = tqs[j], tqs[i] })
		batch, err := c.eng.PredictBatch(c.recent, tqs, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i, tq := range tqs {
			if !reflect.DeepEqual(batch[i], []Prediction{preds[tq-c.from]}) {
				t.Fatalf("%s: PredictBatch[%d] (tq %d) = %+v, range %+v", name, i, tq, batch[i], preds[tq-c.from])
			}
		}
	}

	recent := arc(geom.Pt(9000, 9000), 0)
	start := time.Now()
	preds, err := far.PredictRange(recent, 12, 12+10000)
	if el := time.Since(start); err != nil || len(preds) != 10001 || el > 50*time.Millisecond {
		t.Errorf("10 001 timestamps: %d predictions in %v (want < 50ms), %v", len(preds), el, err)
	}
}
