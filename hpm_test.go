package hpm

import (
	"strings"
	"testing"
)

// trainedBike returns a small predictor over the Bike dataset.
func trainedBike(t testing.TB, cfg Config) (*Predictor, *Trajectory, DatasetSpec) {
	t.Helper()
	spec := DefaultDatasetSpec(DatasetBike, 5)
	spec.Period = 100
	spec.SubTrajectories = 40
	tr := GenerateDataset(spec)
	if cfg.Period == 0 {
		cfg.Period = spec.Period
	}
	if cfg.SubTrajectories == 0 {
		cfg.SubTrajectories = 30 // hold out the tail for queries
	}
	p, err := Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, tr, spec
}

func TestTrainAndPredictPublicAPI(t *testing.T) {
	p, tr, spec := trainedBike(t, Config{})
	if p.NumPatterns() == 0 || p.NumRegions() == 0 {
		t.Fatalf("patterns=%d regions=%d", p.NumPatterns(), p.NumRegions())
	}
	if p.IndexBytes() <= 0 {
		t.Error("IndexBytes not positive")
	}
	if !p.Bounds().IsValid() {
		t.Error("invalid bounds")
	}

	// Query a held-out day.
	day := 35
	base := day * spec.Period
	recent, err := tr.Recent(base+20, 10)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := p.Predict(recent, base+40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions", len(preds))
	}
	truth := tr.At(base + 40)
	if e := preds[0].Location.Dist(truth); e > 2000 {
		t.Errorf("error %v implausible (source %v)", e, preds[0].Source)
	}
}

func TestTrainPoints(t *testing.T) {
	spec := DefaultDatasetSpec(DatasetCow, 9)
	spec.Period = 60
	spec.SubTrajectories = 20
	tr := GenerateDataset(spec)
	p, err := TrainPoints(tr.Points(), Config{Period: 60})
	if err != nil {
		t.Fatal(err)
	}
	if p.NumRegions() == 0 {
		t.Error("no regions via TrainPoints")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(NewTrajectory(nil), Config{Period: 10}); err == nil {
		t.Error("empty trajectory accepted")
	}
	if _, err := TrainPoints(make([]Point, 100), Config{}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestReadTrajectoryCSVPublic(t *testing.T) {
	tr, err := ReadTrajectoryCSV(strings.NewReader("0,1,2\n1,3,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 || tr.At(1) != Pt(3, 4) {
		t.Errorf("parsed %v", tr.Points())
	}
}

func TestWeightAndMotionOptions(t *testing.T) {
	for _, cfg := range []Config{
		{Weight: WeightQuadratic},
		{Weight: WeightExponential},
		{Motion: MotionLinear},
		{Motion: MotionNone},
		{MaxPatternLength: 2},
		{TimeRelaxation: 3, DistantThreshold: 30},
	} {
		p, tr, spec := trainedBike(t, cfg)
		base := 35 * spec.Period
		recent, err := tr.Recent(base+20, 10)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Predict(recent, base+30, 2); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

func TestModelAccessor(t *testing.T) {
	p, _, _ := trainedBike(t, Config{})
	m := p.Model()
	if m == nil || m.NumPatterns() != p.NumPatterns() {
		t.Error("Model() accessor inconsistent")
	}
}

func TestDistantQueryViaPublicAPI(t *testing.T) {
	p, tr, spec := trainedBike(t, Config{DistantThreshold: 30})
	base := 36 * spec.Period
	recent, err := tr.Recent(base+10, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Horizon 60 >= threshold 30: BQP path.
	preds, err := p.Predict(recent, base+70, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("distant query returned %d predictions", len(preds))
	}
	if preds[0].Source != SourcePattern {
		t.Errorf("distant query source %v, want pattern", preds[0].Source)
	}
}

func TestExtendPublicAPI(t *testing.T) {
	spec := DefaultDatasetSpec(DatasetBike, 31)
	spec.Period = 80
	spec.SubTrajectories = 30
	tr := GenerateDataset(spec)
	pts := tr.Points()
	p, err := TrainPoints(pts[:20*spec.Period], Config{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumPatterns()
	res, err := p.Extend(pts[20*spec.Period : 28*spec.Period])
	if err != nil {
		t.Fatal(err)
	}
	if p.NumPatterns() != before+res.NewPatterns-res.RetiredPatterns {
		t.Errorf("patterns %d != %d + %d - %d", p.NumPatterns(), before, res.NewPatterns, res.RetiredPatterns)
	}
	// Partial periods are rejected.
	if _, err := p.Extend(pts[:spec.Period+5]); err == nil {
		t.Error("partial-period extend accepted")
	}
	if _, err := p.Extend(nil); err == nil {
		t.Error("empty extend accepted")
	}
}

func TestDetectPeriodOnDataset(t *testing.T) {
	// The generated datasets have a known period; detection must recover
	// it on strongly patterned data.
	for _, k := range []Dataset{DatasetBike, DatasetCow} {
		spec := DefaultDatasetSpec(k, 17)
		spec.Period = 90
		spec.SubTrajectories = 12
		tr := GenerateDataset(spec)
		got, err := DetectPeriod(tr, 30, 200)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got < 88 || got > 92 {
			t.Errorf("%v: DetectPeriod = %d, want ~90", k, got)
		}
	}
}
