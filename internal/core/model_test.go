package core

import (
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// bikeModel trains a small Bike model shared by several tests.
func bikeModel(t *testing.T) (*Model, []trajectory.SubTrajectory, datagen.Spec) {
	t.Helper()
	spec := datagen.DefaultSpec(datagen.Bike, 42)
	spec.Period = 100
	spec.SubTrajectories = 50
	tr := datagen.Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs[:40], Params{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	return m, subs, spec
}

func TestTrainBasics(t *testing.T) {
	m, _, _ := bikeModel(t)
	if m.NumRegions() == 0 {
		t.Fatal("no frequent regions discovered")
	}
	if m.NumPatterns() == 0 {
		t.Fatal("no patterns mined")
	}
	if m.TreeStats().Items != m.NumPatterns() {
		t.Errorf("tree items %d != patterns %d", m.TreeStats().Items, m.NumPatterns())
	}
	p := m.Params()
	if p.Eps != DefaultEps || p.MinPts != DefaultMinPts {
		t.Errorf("defaults not applied: %+v", p)
	}
	if p.Mining.MinConfidence != DefaultMinConfidence {
		t.Errorf("min confidence default: %v", p.Mining.MinConfidence)
	}
	if !m.Bounds().IsValid() || m.Bounds().Area() == 0 {
		t.Errorf("bad bounds %v", m.Bounds())
	}
	if m.MiningStats().Rules != m.NumPatterns() {
		t.Error("stats rules != patterns")
	}
	if m.Engine() == nil || m.encoder == nil || m.regions == nil || m.engine.Rules().Patterns() == nil {
		t.Error("accessor returned nil")
	}
}

func TestPredictNearQueryOnPattern(t *testing.T) {
	m, subs, spec := bikeModel(t)
	// Query a held-out day: recent movements at offsets 10..19 of day 45,
	// query offset 30 of the same day.
	day := subs[45]
	var recent []trajectory.TimedPoint
	base := 45 * spec.Period
	for off := 10; off < 20; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	preds, err := m.Predict(recent, base+30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions", len(preds))
	}
	truth := day.Points[30]
	if err := preds[0].Location.Dist(truth); err > 1500 {
		t.Errorf("near prediction error %v implausible (pred %v truth %v, source %v)",
			err, preds[0].Location, truth, preds[0].Source)
	}
}

func TestPredictDistantQueryUsesPatterns(t *testing.T) {
	m, subs, spec := bikeModel(t)
	day := subs[44]
	base := 44 * spec.Period
	var recent []trajectory.TimedPoint
	for off := 0; off < 10; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	// Distant: default threshold is 60, horizon here is 80.
	preds, err := m.Predict(recent, base+89, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions", len(preds))
	}
	if preds[0].Source != hpa.SourcePattern {
		t.Errorf("distant query answered by %v, want pattern (BQP)", preds[0].Source)
	}
	truth := day.Points[89]
	if e := preds[0].Location.Dist(truth); e > 2000 {
		t.Errorf("distant prediction error %v implausible", e)
	}
}

func TestPredictKReturnsSeveral(t *testing.T) {
	m, subs, spec := bikeModel(t)
	day := subs[46]
	base := 46 * spec.Period
	var recent []trajectory.TimedPoint
	for off := 10; off < 20; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	preds, err := m.Predict(recent, base+25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	if len(preds) > 3 {
		t.Errorf("k=3 returned %d", len(preds))
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Score > preds[i-1].Score {
			t.Error("predictions not ranked")
		}
	}
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, Params{Period: 10}); err == nil {
		t.Error("nil trajectory accepted")
	}
	if _, err := Train(trajectory.New(nil), Params{Period: 10}); err == nil {
		t.Error("empty trajectory accepted")
	}
	tr := trajectory.New(make([]geom.Point, 5))
	if _, err := Train(tr, Params{Period: 10}); err == nil {
		t.Error("sub-period trajectory accepted")
	}
	if _, err := Train(tr, Params{Period: 0}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := TrainSubTrajectories(nil, Params{Period: 10}); err == nil {
		t.Error("no sub-trajectories accepted")
	}
}

func TestTrainSubTrajectoriesPeriodMismatch(t *testing.T) {
	subs := []trajectory.SubTrajectory{{Index: 0, Points: make([]geom.Point, 5)}}
	if _, err := TrainSubTrajectories(subs, Params{Period: 10}); err == nil {
		t.Error("period mismatch accepted")
	}
}

func TestTrainViaTrajectory(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Cow, 13)
	spec.Period = 80
	spec.SubTrajectories = 30
	tr := datagen.Generate(spec)
	m, err := Train(tr, Params{Period: 80})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRegions() == 0 {
		t.Error("no regions from Train")
	}
}

func TestSubTrajectoriesCap(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 21)
	spec.Period = 60
	spec.SubTrajectories = 40
	tr := datagen.Generate(spec)
	subs, _ := tr.Decompose(60)
	small, err := TrainSubTrajectories(subs, Params{Period: 60, SubTrajectories: 8})
	if err != nil {
		t.Fatal(err)
	}
	full, err := TrainSubTrajectories(subs, Params{Period: 60})
	if err != nil {
		t.Fatal(err)
	}
	if small.regions.NumSubTrajectories() != 8 {
		t.Errorf("cap not applied: trained on %d subs", small.regions.NumSubTrajectories())
	}
	if full.regions.NumSubTrajectories() != 40 {
		t.Errorf("full training used %d subs", full.regions.NumSubTrajectories())
	}
	// More training data never yields fewer patterns on this dataset.
	if full.NumPatterns() < small.NumPatterns() {
		t.Logf("note: full %d < small %d patterns (possible but unusual)",
			full.NumPatterns(), small.NumPatterns())
	}
}

func TestMotionKindSelection(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Car, 31)
	spec.Period = 60
	spec.SubTrajectories = 20
	tr := datagen.Generate(spec)

	for _, kind := range []MotionKind{MotionRMF, MotionLinear, MotionNone} {
		m, err := Train(tr, Params{Period: 60, Motion: kind})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Query far from any frequent region to force the fallback.
		recent := []trajectory.TimedPoint{
			{T: 60 * 19, Loc: geom.Pt(50, 9950)},
			{T: 60*19 + 1, Loc: geom.Pt(60, 9950)},
		}
		preds, err := m.Predict(recent, 60*19+5, 1)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		switch kind {
		case MotionNone:
			if len(preds) != 0 {
				t.Errorf("MotionNone produced %v", preds)
			}
		default:
			if len(preds) != 1 || preds[0].Source != hpa.SourceMotion {
				t.Errorf("%v: fallback missing: %+v", kind, preds)
			}
			if !m.Bounds().Contains(preds[0].Location) {
				t.Errorf("%v: fallback escaped bounds", kind)
			}
		}
	}
}

func TestMotionKindString(t *testing.T) {
	if MotionRMF.String() != "rmf" || MotionLinear.String() != "linear" || MotionNone.String() != "none" {
		t.Error("MotionKind.String broken")
	}
}

func TestPruningStatsExposed(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 42)
	spec.Period = 100
	spec.SubTrajectories = 30
	tr := datagen.Generate(spec)
	m, err := Train(tr, Params{Period: spec.Period,
		Mining: pattern.Config{CountUnpruned: true}})
	if err != nil {
		t.Fatal(err)
	}
	s := m.MiningStats()
	if s.UnprunedRules <= s.Rules {
		t.Errorf("pruning ablation counters: unpruned %d, rules %d", s.UnprunedRules, s.Rules)
	}
	if pct := s.ReductionPct(); pct <= 0 || pct >= 100 {
		t.Errorf("reduction %v%% out of range", pct)
	}
}

func TestExplain(t *testing.T) {
	m, subs, spec := bikeModel(t)
	day := subs[45]
	base := 45 * spec.Period
	var recent []trajectory.TimedPoint
	for off := 10; off < 20; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	preds, err := m.Predict(recent, base+30, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 || preds[0].Source != hpa.SourcePattern {
		t.Skip("query not answered by a pattern on this seed")
	}
	ex, ok := m.Explain(preds[0])
	if !ok {
		t.Fatal("Explain refused a pattern prediction")
	}
	if len(ex.Premise) == 0 {
		t.Error("explanation has no premise regions")
	}
	if ex.Consequence.Center != preds[0].Location {
		t.Errorf("consequence center %v != predicted %v", ex.Consequence.Center, preds[0].Location)
	}
	if ex.Consequence.Offset != preds[0].ConsequenceOffset {
		t.Errorf("consequence offset %d != %d", ex.Consequence.Offset, preds[0].ConsequenceOffset)
	}
	if ex.Confidence <= 0 || ex.Confidence > 1 {
		t.Errorf("confidence %v out of range", ex.Confidence)
	}
	if ex.Rule == "" || ex.Support <= 0 {
		t.Errorf("rule %q support %d", ex.Rule, ex.Support)
	}
	// Motion predictions are not explainable.
	if _, ok := m.Explain(hpa.Prediction{Source: hpa.SourceMotion, PatternRef: -1}); ok {
		t.Error("Explain accepted a motion prediction")
	}
	if _, ok := m.Explain(hpa.Prediction{Source: hpa.SourcePattern, PatternRef: 1 << 30}); ok {
		t.Error("Explain accepted an out-of-range ref")
	}
}
