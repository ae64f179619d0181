package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"hpm/internal/bitkey"
	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// janeGroups builds a three-offset dataset shaped like the paper's running
// example (Fig. 3): 20 sub-trajectories that all start at Home, split
// between City (subs 0-9) and Shopping center (subs 10-19) at offset 1, and
// end at Work (subs 0-4), noise (5-9), Beach (10-17), noise (18-19).
func janeGroups() []trajectory.Group {
	const n = 20
	jitter := func(c geom.Point, i int) geom.Point {
		// Deterministic sub-Eps jitter so clusters are tight.
		return geom.Pt(c.X+float64(i%5), c.Y+float64((i*3)%7))
	}
	home := geom.Pt(100, 100)
	city := geom.Pt(2000, 2000)
	shop := geom.Pt(3000, 1000)
	work := geom.Pt(4000, 4000)
	beach := geom.Pt(5000, 1000)

	g0 := trajectory.Group{Offset: 0, Points: make([]geom.Point, n)}
	g1 := trajectory.Group{Offset: 1, Points: make([]geom.Point, n)}
	g2 := trajectory.Group{Offset: 2, Points: make([]geom.Point, n)}
	for i := 0; i < n; i++ {
		g0.Points[i] = jitter(home, i)
		if i < 10 {
			g1.Points[i] = jitter(city, i)
		} else {
			g1.Points[i] = jitter(shop, i)
		}
		switch {
		case i < 5:
			g2.Points[i] = jitter(work, i)
		case i < 10:
			// Noise: pairwise-distant singletons.
			g2.Points[i] = geom.Pt(float64(1000*i), 9000)
		case i < 18:
			g2.Points[i] = jitter(beach, i)
		default:
			g2.Points[i] = geom.Pt(float64(1000*i), 200)
		}
	}
	return []trajectory.Group{g0, g1, g2}
}

func janeTable(t *testing.T) *RegionTable {
	t.Helper()
	rt := DiscoverRegions(janeGroups(), 30, 4)
	if rt.Len() != 5 {
		t.Fatalf("discovered %d regions, want 5", rt.Len())
	}
	return rt
}

func TestDiscoverRegionsJane(t *testing.T) {
	rt := janeTable(t)
	wants := []struct {
		id      RegionID
		offset  int
		index   int
		support int
	}{
		{0, 0, 0, 20}, // Home
		{1, 1, 0, 10}, // City
		{2, 1, 1, 10}, // Shopping center
		{3, 2, 0, 5},  // Work
		{4, 2, 1, 8},  // Beach
	}
	for _, w := range wants {
		fr := rt.Region(w.id)
		if fr.Offset != w.offset || fr.Index != w.index || fr.Support != w.support {
			t.Errorf("region %d = %s support %d, want R_%d^%d support %d",
				w.id, fr, fr.Support, w.offset, w.index, w.support)
		}
	}
	if got := len(rt.AtOffset(1)); got != 2 {
		t.Errorf("regions at offset 1 = %d, want 2", got)
	}
	if got := len(rt.AtOffset(7)); got != 0 {
		t.Errorf("regions at empty offset = %d, want 0", got)
	}
}

func TestRegionVisitors(t *testing.T) {
	rt := janeTable(t)
	city := rt.Region(1)
	for j := 0; j < 20; j++ {
		if city.Visits(j) != (j < 10) {
			t.Errorf("City.Visits(%d) = %v", j, city.Visits(j))
		}
	}
}

func TestRegionKeysMatchPaperTableI(t *testing.T) {
	rt := janeTable(t)
	want := []string{"00001", "00010", "00100", "01000", "10000"}
	for id, s := range want {
		if got := keyBits(rt.RegionKey(RegionID(id))); got != s {
			t.Errorf("region key %d = %s, want %s", id, got, s)
		}
	}
	if got := keyBits(rt.PremiseKey([]RegionID{0, 1})); got != "00011" {
		t.Errorf("premise key R0^0^R1^0 = %s, want 00011", got)
	}
	if got := keyBits(rt.PremiseKey([]RegionID{0, 2})); got != "00101" {
		t.Errorf("premise key R0^0^R1^1 = %s, want 00101", got)
	}
}

func TestLocate(t *testing.T) {
	rt := janeTable(t)
	// A point inside City's MBR.
	if fr, ok := rt.Locate(1, geom.Pt(2002, 2003)); !ok || fr.ID != 1 {
		t.Errorf("Locate city = %v, %v", fr, ok)
	}
	// A point just outside the MBR but within Eps of the center.
	if fr, ok := rt.Locate(1, geom.Pt(2020, 2020)); !ok || fr.ID != 1 {
		t.Errorf("Locate near-city = %v, %v", fr, ok)
	}
	// Far from everything.
	if _, ok := rt.Locate(1, geom.Pt(9000, 9000)); ok {
		t.Error("Locate matched a far point")
	}
	// Offset with no regions.
	if _, ok := rt.Locate(9, geom.Pt(2000, 2000)); ok {
		t.Error("Locate matched at an empty offset")
	}
}

func expectPatterns(t *testing.T, rt *RegionTable, got []Pattern, want map[string]float64) {
	t.Helper()
	gotMap := map[string]float64{}
	for _, p := range got {
		gotMap[p.String()] = p.Confidence
	}
	if len(gotMap) != len(want) {
		t.Errorf("got %d distinct patterns, want %d:\n got: %v\nwant: %v", len(gotMap), len(want), gotMap, want)
	}
	for k, conf := range want {
		g, ok := gotMap[k]
		if !ok {
			t.Errorf("missing pattern %s", k)
			continue
		}
		if diff := g - conf; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("pattern %s confidence %v, want %v", k, g, conf)
		}
	}
}

func TestMineJane(t *testing.T) {
	rt := janeTable(t)
	rules, stats := MineWithStats(rt, Config{MinSupport: 2, MinConfidence: 0.3, CountUnpruned: true})
	patterns := rules.Patterns()
	// Region ids: 0=Home 1=City 2=Shop 3=Work 4=Beach.
	want := map[string]float64{
		"r0 --0.50--> r1":      0.5, // Home -> City
		"r0 --0.50--> r2":      0.5, // Home -> Shop
		"r0 --0.40--> r4":      0.4, // Home -> Beach
		"r1 --0.50--> r3":      0.5, // City -> Work
		"r2 --0.80--> r4":      0.8, // Shop -> Beach
		"r0 ^ r1 --0.50--> r3": 0.5, // Home ^ City -> Work
		"r0 ^ r2 --0.80--> r4": 0.8, // Home ^ Shop -> Beach
	}
	expectPatterns(t, rt, patterns, want)
	if stats.Rules != len(patterns) {
		t.Errorf("stats.Rules = %d, want %d", stats.Rules, len(patterns))
	}
	if stats.FrequentItemsets != 8 {
		t.Errorf("FrequentItemsets = %d, want 8", stats.FrequentItemsets)
	}
	if stats.UnprunedRules <= stats.Rules {
		t.Errorf("UnprunedRules = %d, must exceed pruned %d", stats.UnprunedRules, stats.Rules)
	}
	if p := stats.ReductionPct(); p <= 0 || p >= 100 {
		t.Errorf("ReductionPct = %v out of (0,100)", p)
	}
}

// Home -> Work has confidence 5/20 = 0.25: below the 0.3 threshold, so it
// must be absent even though the itemset is frequent.
func TestMineConfidenceFilter(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})
	for _, p := range patterns {
		if len(p.Premise) == 1 && p.Premise[0] == 0 && p.Consequence == 3 {
			t.Errorf("low-confidence pattern %s emitted", p)
		}
	}
	// Lowering the threshold admits it.
	patterns = Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})
	found := false
	for _, p := range patterns {
		if len(p.Premise) == 1 && p.Premise[0] == 0 && p.Consequence == 3 {
			found = true
			if p.Confidence != 0.25 {
				t.Errorf("Home->Work confidence %v, want 0.25", p.Confidence)
			}
		}
	}
	if !found {
		t.Error("Home->Work missing at minConfidence 0.2")
	}
}

func TestMineMonotoneTimeConstraint(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0})
	for _, p := range patterns {
		last := -1
		for _, id := range p.Premise {
			off := rt.Region(id).Offset
			if off <= last {
				t.Errorf("pattern %s premise offsets not strictly increasing", p)
			}
			last = off
		}
		if rt.Region(p.Consequence).Offset <= last {
			t.Errorf("pattern %s consequence offset not after premise", p)
		}
	}
}

func TestMineMinSupport(t *testing.T) {
	rt := janeTable(t)
	// MinSupport 6 removes the Work region's itemsets (support 5).
	patterns := Mine(rt, Config{MinSupport: 6, MinConfidence: 0})
	for _, p := range patterns {
		if p.Consequence == 3 {
			t.Errorf("pattern %s survived MinSupport 6 with support %d", p, p.Support)
		}
		if p.Support < 6 {
			t.Errorf("pattern %s support %d below MinSupport", p, p.Support)
		}
	}
}

func TestMineMaxLength(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0, MaxLength: 2})
	for _, p := range patterns {
		if len(p.Premise) != 1 {
			t.Errorf("pattern %s exceeds MaxLength 2", p)
		}
	}
}

func TestMineEmptyTable(t *testing.T) {
	rt := DiscoverRegions(nil, 30, 4)
	if got := Mine(rt, Config{}); got != nil {
		t.Errorf("Mine on empty table = %v", got)
	}
}

func TestConsequenceTableMatchesPaperTableII(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})
	ct := NewConsequenceTable(rt, patterns)
	if ct.Len() != 2 {
		t.Fatalf("consequence table length %d, want 2", ct.Len())
	}
	if id, ok := ct.TimeID(1); !ok || id != 0 {
		t.Errorf("TimeID(1) = %d,%v want 0,true", id, ok)
	}
	if id, ok := ct.TimeID(2); !ok || id != 1 {
		t.Errorf("TimeID(2) = %d,%v want 1,true", id, ok)
	}
	if _, ok := ct.TimeID(0); ok {
		t.Error("offset 0 must not be a consequence offset")
	}
	if got := keyBits(ct.Key(1)); got != "01" {
		t.Errorf("Key(1) = %s, want 01", got)
	}
	if got := keyBits(ct.Key(2)); got != "10" {
		t.Errorf("Key(2) = %s, want 10", got)
	}
}

func TestEncoderMatchesPaperTableIII(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})
	ct := NewConsequenceTable(rt, patterns)
	enc := NewEncoder(rt, ct)
	want := map[string]string{
		"r0 --0.50--> r1":      "0100001",
		"r0 --0.50--> r2":      "0100001", // shares P0's key, as the paper notes
		"r0 ^ r1 --0.50--> r3": "1000011",
		"r0 ^ r2 --0.80--> r4": "1000101",
	}
	for _, p := range patterns {
		if w, ok := want[p.String()]; ok {
			if got := keyString(enc.Encode(p)); got != w {
				t.Errorf("pattern key of %s = %s, want %s", p, got, w)
			}
		}
	}
	// The paper's worked query: recent movements R0^0, R1^0 and tq=2.
	q := enc.QueryKey([]RegionID{0, 1}, 2)
	if got := keyString(q); got != "1000011" {
		t.Errorf("query key = %s, want 1000011", got)
	}
}

// keyString renders a pattern key in the paper's notation, consequence
// part first (Table III).
func keyString(k bitkey.PatternKey) string { return keyBits(k.CK) + keyBits(k.RK) }

func TestConsequenceKeyRange(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})
	ct := NewConsequenceTable(rt, patterns)
	if got := keyBits(ct.KeyRange(0, 5)); got != "11" {
		t.Errorf("KeyRange(0,5) = %s, want 11", got)
	}
	if got := keyBits(ct.KeyRange(2, 2)); got != "10" {
		t.Errorf("KeyRange(2,2) = %s, want 10", got)
	}
	if got := keyBits(ct.KeyRange(3, 9)); got != "00" {
		t.Errorf("KeyRange(3,9) = %s, want 00", got)
	}
}

// bruteForceMine exhaustively enumerates monotone single-consequence rules
// over the region table by directly intersecting visitor sets, honouring the
// same MaxLength and PremiseSpan bounds as Mine.
func bruteForceMine(rt *RegionTable, cfg Config) map[string]float64 {
	cfg = cfg.withDefaults()
	rules := map[string]float64{}
	regions := rt.Regions()
	n := rt.NumSubTrajectories()

	support := func(ids []RegionID) int {
		count := 0
		for j := 0; j < n; j++ {
			all := true
			for _, id := range ids {
				if !rt.Region(id).Visits(j) {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		return count
	}

	var rec func(chosen []RegionID, next int)
	rec = func(chosen []RegionID, next int) {
		if len(chosen) >= 2 {
			// Validity: strictly increasing offsets, premise span.
			ok := true
			for i := 1; i < len(chosen); i++ {
				if rt.Region(chosen[i]).Offset <= rt.Region(chosen[i-1]).Offset {
					ok = false
				}
			}
			if cfg.PremiseSpan >= 0 && len(chosen) > 2 {
				span := rt.Region(chosen[len(chosen)-2]).Offset - rt.Region(chosen[0]).Offset
				if span > cfg.PremiseSpan {
					ok = false
				}
			}
			if cfg.ConsequenceReach >= 0 && len(chosen) > 2 {
				reach := rt.Region(chosen[len(chosen)-1]).Offset - rt.Region(chosen[len(chosen)-2]).Offset
				if reach > cfg.ConsequenceReach {
					ok = false
				}
			}
			if ok {
				sup := support(chosen)
				if sup >= cfg.MinSupport {
					premSup := support(chosen[:len(chosen)-1])
					conf := float64(sup) / float64(premSup)
					if conf >= cfg.MinConfidence {
						p := Pattern{Premise: chosen[:len(chosen)-1], Consequence: chosen[len(chosen)-1], Confidence: conf}
						rules[p.String()] = conf
					}
				}
			}
		}
		if len(chosen) == cfg.MaxLength {
			return
		}
		for i := next; i < len(regions); i++ {
			rec(append(chosen, regions[i].ID), i+1)
		}
	}
	rec(nil, 0)
	return rules
}

// Property: on random data Mine matches an exhaustive rule enumeration.
func TestMineMatchesBruteForceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	centers := []geom.Point{
		geom.Pt(1000, 1000), geom.Pt(5000, 1000), geom.Pt(1000, 5000), geom.Pt(5000, 5000),
	}
	for trial := 0; trial < 15; trial++ {
		nSubs := 8 + r.Intn(12)
		nOffsets := 3 + r.Intn(3)
		groups := make([]trajectory.Group, nOffsets)
		for off := range groups {
			groups[off] = trajectory.Group{Offset: off, Points: make([]geom.Point, nSubs)}
			for j := 0; j < nSubs; j++ {
				c := centers[r.Intn(len(centers))]
				groups[off].Points[j] = geom.Pt(c.X+r.Float64()*20-10, c.Y+r.Float64()*20-10)
			}
		}
		rt := DiscoverRegions(groups, 30, 3)
		cfg := Config{MinSupport: 2, MinConfidence: 0.25, MaxLength: 3, PremiseSpan: -1}
		got := Mine(rt, cfg)
		want := bruteForceMine(rt, cfg)
		gotMap := map[string]float64{}
		for _, p := range got {
			gotMap[p.String()] = p.Confidence
		}
		if len(gotMap) != len(want) {
			t.Fatalf("trial %d: %d rules, brute force %d\n got %v\nwant %v",
				trial, len(gotMap), len(want), gotMap, want)
		}
		for k, conf := range want {
			g, ok := gotMap[k]
			if !ok || g-conf > 1e-9 || conf-g > 1e-9 {
				t.Fatalf("trial %d: rule %s = %v, want %v (present %v)", trial, k, g, conf, ok)
			}
		}
	}
}

func TestPatternStringFormat(t *testing.T) {
	p := Pattern{Premise: []RegionID{0, 1}, Consequence: 3, Confidence: 0.5}
	if got, want := p.String(), "r0 ^ r1 --0.50--> r3"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestRegionPanicsOnBadID(t *testing.T) {
	rt := janeTable(t)
	defer func() {
		if recover() == nil {
			t.Error("Region(99) did not panic")
		}
	}()
	rt.Region(99)
}

func TestFrequentRegionString(t *testing.T) {
	rt := janeTable(t)
	if got := fmt.Sprint(rt.Region(2)); got != "R_1^1" {
		t.Errorf("String = %q, want R_1^1", got)
	}
}

func BenchmarkMineJaneScale(b *testing.B) {
	// Mining over a realistic region table (built once).
	spec := struct{ offsets, subs int }{60, 30}
	r := rand.New(rand.NewSource(2))
	groups := make([]trajectory.Group, spec.offsets)
	centers := []geom.Point{geom.Pt(1000, 1000), geom.Pt(5000, 2000), geom.Pt(8000, 8000)}
	for off := range groups {
		groups[off] = trajectory.Group{Offset: off, Points: make([]geom.Point, spec.subs)}
		for j := 0; j < spec.subs; j++ {
			c := centers[j%len(centers)]
			groups[off].Points[j] = geom.Pt(c.X+r.Float64()*20, c.Y+r.Float64()*20)
		}
	}
	rt := DiscoverRegions(groups, 30, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mine(rt, Config{MinSupport: 4, MinConfidence: 0.3})
	}
}
