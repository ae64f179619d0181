package core

import (
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

func TestExtendInsertsNewPatterns(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 77)
	spec.Period = 80
	spec.SubTrajectories = 40
	tr := datagen.Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}

	// Train on a prefix with a raised confidence bar so some almost-
	// confident rules are left out, then extend with days that push them
	// over the bar.
	m, err := TrainSubTrajectories(subs[:20], Params{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumPatterns()
	treeBefore := m.TreeStats().Items
	if before != treeBefore {
		t.Fatalf("pattern/tree mismatch before extend: %d vs %d", before, treeBefore)
	}

	res, err := m.Extend(subs[20:35])
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPatterns != m.NumPatterns() {
		t.Errorf("result total %d != model %d", res.TotalPatterns, m.NumPatterns())
	}
	if m.NumPatterns() != before+res.NewPatterns-res.RetiredPatterns {
		t.Errorf("patterns %d != before %d + new %d - retired %d",
			m.NumPatterns(), before, res.NewPatterns, res.RetiredPatterns)
	}
	if m.TreeStats().Items != m.NumPatterns() {
		t.Errorf("tree items %d != patterns %d after extend", m.TreeStats().Items, m.NumPatterns())
	}
	// Every rule that came or moved was re-derived first; so were the
	// touched itemsets nothing came of.
	if res.Reevaluated < res.NewPatterns+res.UpdatedPatterns || res.Reevaluated == 0 {
		t.Errorf("re-evaluated %d itemsets for %d new and %d updated patterns",
			res.Reevaluated, res.NewPatterns, res.UpdatedPatterns)
	}
	if n, ok := m.MinerItemsets(); !ok || n < m.NumPatterns() {
		t.Errorf("miner tracks %d itemsets (seeded %v) under %d patterns", n, ok, m.NumPatterns())
	}
	if m.regions.NumSubTrajectories() != 35 {
		t.Errorf("region table saw %d subs, want 35", m.regions.NumSubTrajectories())
	}

	// The extended model must still answer queries end to end.
	day := subs[38]
	base := 38 * spec.Period
	var recent []trajectory.TimedPoint
	for off := 10; off < 20; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	if _, err := m.Predict(recent, base+30, 1); err != nil {
		t.Fatal(err)
	}
}

func TestExtendEmptyAndInvalid(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Cow, 3)
	spec.Period = 60
	spec.SubTrajectories = 15
	tr := datagen.Generate(spec)
	m, err := Train(tr, Params{Period: 60})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Extend(nil)
	if err != nil || res.NewPatterns != 0 || res.TotalPatterns != m.NumPatterns() {
		t.Errorf("empty extend: %+v, %v", res, err)
	}
	bad := []trajectory.SubTrajectory{{Points: make([]geom.Point, 10)}}
	if _, err := m.Extend(bad); err == nil {
		t.Error("period-mismatched extend accepted")
	}
}

// Extend must be a no-op on the pattern set when the new days replay
// already-mined behaviour exactly.
func TestExtendIdempotentOnReplays(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 13)
	spec.Period = 60
	spec.SubTrajectories = 30
	tr := datagen.Generate(spec)
	subs, _ := tr.Decompose(spec.Period)
	m, err := TrainSubTrajectories(subs, Params{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	before := m.NumPatterns()
	// Replay the first training days verbatim: supports rise uniformly,
	// confidences stay ratios of the same structure, so at most a handful
	// of borderline rules can newly qualify.
	res, err := m.Extend(subs[:3])
	if err != nil {
		t.Fatal(err)
	}
	if res.NewPatterns > before/10 {
		t.Errorf("replay created %d new patterns out of %d", res.NewPatterns, before)
	}
}

// TestMinerBytesPerItemset ratchets what a seeded miner holds per tracked
// itemset at the harness fleet's shape: a Bike object trained on ten
// periods of sixty, seeded as its first Extend seeds it. The itemset tree
// keeps a 28-byte slot per itemset and per region root, and no copy of a
// rule's confidence or support; a slot index and an id arena beside the
// slots held 71.3 bytes an itemset.
func TestMinerBytesPerItemset(t *testing.T) {
	const budget = 32
	subs := fleetSubs(t, datagen.Bike, fleetPeriod, fleetTrainPeriods)
	m, err := TrainSubTrajectories(subs, Params{Period: fleetPeriod})
	if err != nil {
		t.Fatal(err)
	}
	m.seedMiner()
	n, _ := m.MinerItemsets()
	if n == 0 {
		t.Fatal("the seeded miner tracks no itemset")
	}
	if per := float64(m.MinerBytes()) / float64(n); per > budget {
		t.Fatalf("the seeded miner holds %d bytes for %d itemsets, %.1f an itemset; the budget is %d", m.MinerBytes(), n, per, budget)
	}
}
