package pattern

import (
	"math/rand"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// applyDelta folds a Delta into a rule map, checking its internal
// consistency: removals name live rules, additions are genuinely new
// (after removals apply), updates touch existing rules.
func applyDelta(t *testing.T, rules map[IdentityKey]Pattern, d Delta) {
	t.Helper()
	for _, key := range d.Removed {
		if _, ok := rules[key]; !ok {
			t.Fatalf("delta removed unknown rule %v", key)
		}
		delete(rules, key)
	}
	for _, p := range d.Added {
		key := PatternIdentity(p)
		if _, ok := rules[key]; ok {
			t.Fatalf("delta re-added live rule %v", p)
		}
		rules[key] = p
	}
	for _, p := range d.Updated {
		key := PatternIdentity(p)
		if _, ok := rules[key]; !ok {
			t.Fatalf("delta updated unknown rule %v", p)
		}
		rules[key] = p
	}
}

// wantBatch mines rt from scratch and returns the rules by identity.
func wantBatch(rt *RegionTable, cfg Config) map[IdentityKey]Pattern {
	want := make(map[IdentityKey]Pattern)
	for _, p := range Mine(rt, cfg) {
		want[PatternIdentity(p)] = p
	}
	return want
}

// checkEquivalent compares the miner's active rules (and the delta-folded
// shadow copy) against a from-scratch batch mine over the same table.
func checkEquivalent(t *testing.T, rt *RegionTable, cfg Config, m *IncrementalMiner, rules map[IdentityKey]Pattern) {
	t.Helper()
	want := wantBatch(rt, cfg)
	for _, got := range [2]map[IdentityKey]Pattern{activeByKey(m), rules} {
		if len(got) != len(want) {
			t.Fatalf("incremental has %d rules, batch %d", len(got), len(want))
		}
		for key, wp := range want {
			gp, ok := got[key]
			if !ok {
				t.Fatalf("batch rule %v missing from incremental set", wp)
			}
			if gp.Confidence != wp.Confidence || gp.Support != wp.Support {
				t.Fatalf("rule %v: incremental conf %g sup %d, batch conf %g sup %d",
					wp, gp.Confidence, gp.Support, wp.Confidence, wp.Support)
			}
		}
	}
}

func activeByKey(m *IncrementalMiner) map[IdentityKey]Pattern {
	out := make(map[IdentityKey]Pattern)
	for _, p := range m.ActiveRules() {
		out[PatternIdentity(p)] = p
	}
	return out
}

// seedMiner replays every live sub-trajectory's chain through the normal
// update path, as core.Model does when it lazily builds its miner.
func seedMiner(rt *RegionTable, cfg Config) (*IncrementalMiner, Delta) {
	m := NewIncrementalMiner(rt, cfg, 0)
	var chains [][]RegionID
	for j := 0; j < rt.NumSubTrajectories(); j++ {
		if ch := rt.ChainOf(j); len(ch) > 0 {
			chains = append(chains, ch)
		}
	}
	return m, m.Update(chains, nil)
}

func TestIncrementalSeedMatchesBatchJane(t *testing.T) {
	rt := janeTable(t)
	cfg := Config{MinSupport: 4, MinConfidence: 0.3}
	m, d := seedMiner(rt, cfg)
	rules := make(map[IdentityKey]Pattern)
	applyDelta(t, rules, d)
	checkEquivalent(t, rt, cfg, m, rules)
	if len(rules) == 0 {
		t.Fatal("jane table seeded zero rules; test is vacuous")
	}
}

// randomGroups builds n sub-trajectories over P offsets: each offset has
// a handful of cluster anchors, and every sub either snaps (with jitter)
// to the anchor its lineage prefers or wanders off as noise. Returns one
// group per offset, the shape trajectory.Groups produces.
func randomGroups(rng *rand.Rand, n, P int) []trajectory.Group {
	anchors := make([][]geom.Point, P)
	for t := 0; t < P; t++ {
		k := 2 + rng.Intn(3)
		anchors[t] = make([]geom.Point, k)
		for c := range anchors[t] {
			anchors[t][c] = geom.Pt(rng.Float64()*9000, rng.Float64()*9000)
		}
	}
	groups := make([]trajectory.Group, P)
	for t := 0; t < P; t++ {
		groups[t] = trajectory.Group{Offset: t, Points: make([]geom.Point, n)}
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.15 {
				// Noise: far outside any cluster's reach.
				groups[t].Points[j] = geom.Pt(20000+rng.Float64()*50000, 20000+rng.Float64()*50000)
				continue
			}
			a := anchors[t][(j+t*j)%len(anchors[t])]
			groups[t].Points[j] = geom.Pt(a.X+rng.Float64()*20-10, a.Y+rng.Float64()*20-10)
		}
	}
	return groups
}

// subset extracts the points of sub-trajectories [lo, hi) from groups.
func subset(groups []trajectory.Group, lo, hi int) []trajectory.Group {
	out := make([]trajectory.Group, len(groups))
	for i, g := range groups {
		out[i] = trajectory.Group{Offset: g.Offset, Points: g.Points[lo:hi]}
	}
	return out
}

// TestIncrementalMatchesBatchUnderChurn drives the miner through the full
// lifecycle — seed, absorb batches of new days, retire old days — and
// after every step compares its rule set against a from-scratch batch
// mine over the table's current bitmaps. Batch mining reads live supports
// and visitor bitmaps, so it is ground truth at any point, not just at
// build time.
func TestIncrementalMatchesBatchUnderChurn(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		const n, P, initial = 40, 12, 24
		all := randomGroups(rng, n, P)
		rt := DiscoverRegions(subset(all, 0, initial), 30, 4)
		if rt.Len() < 5 {
			t.Fatalf("seed %d: only %d regions; test is vacuous", seed, rt.Len())
		}
		cfg := Config{MinSupport: 4, MinConfidence: 0.3}
		m, d := seedMiner(rt, cfg)
		rules := make(map[IdentityKey]Pattern)
		applyDelta(t, rules, d)
		checkEquivalent(t, rt, cfg, m, rules)

		retired := 0
		for lo := initial; lo < n; lo += 4 {
			hi := lo + 4
			if hi > n {
				hi = n
			}
			res, err := rt.AbsorbDetailed(subset(all, lo, hi))
			if err != nil {
				t.Fatal(err)
			}
			// Retire the two oldest live days alongside each absorb, as a
			// sliding history window would.
			var gone [][]RegionID
			for k := 0; k < 2; k++ {
				if ch := rt.ChainOf(retired); len(ch) > 0 {
					gone = append(gone, ch)
				}
				rt.ClearSub(retired)
				retired++
			}
			applyDelta(t, rules, m.Update(res.Chains, gone))
			checkEquivalent(t, rt, cfg, m, rules)
		}
		if len(rules) == 0 {
			t.Fatalf("seed %d: churn left zero rules; test is vacuous", seed)
		}
	}
}

// TestAbsorbMintedMatchesBatch mints a region at the last offset (so
// appended ids keep the sorted-by-offset invariant batch mining assumes)
// and checks the restricted replay promotes exactly the rules a batch
// mine over the grown table finds.
func TestAbsorbMintedMatchesBatch(t *testing.T) {
	rt := janeTable(t)
	cfg := Config{MinSupport: 4, MinConfidence: 0.3}
	m, d := seedMiner(rt, cfg)
	rules := make(map[IdentityKey]Pattern)
	applyDelta(t, rules, d)

	// Six new days repeat the City lineage but end at a brand-new spot.
	newSpot := geom.Pt(7000, 7000)
	const days = 6
	groups := []trajectory.Group{
		{Offset: 0, Points: make([]geom.Point, days)},
		{Offset: 1, Points: make([]geom.Point, days)},
		{Offset: 2, Points: make([]geom.Point, days)},
	}
	for i := 0; i < days; i++ {
		groups[0].Points[i] = geom.Pt(100+float64(i%5), 100+float64((i*3)%7))
		groups[1].Points[i] = geom.Pt(2000+float64(i%5), 2000+float64((i*3)%7))
		groups[2].Points[i] = geom.Pt(newSpot.X+float64(i%5), newSpot.Y+float64((i*3)%7))
	}
	res, err := rt.AbsorbDetailed(groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Unmatched) != days {
		t.Fatalf("unmatched = %d, want %d (all new-spot points)", len(res.Unmatched), days)
	}
	applyDelta(t, rules, m.Update(res.Chains, nil))

	// Mint the new region from the buffered points, then replay its
	// visitors' chains restricted to itemsets containing it.
	subs := make([]int, 0, days)
	pts := make([]geom.Point, 0, days)
	for _, u := range res.Unmatched {
		subs = append(subs, u.Sub)
		pts = append(pts, u.P)
	}
	fr := rt.AppendRegion(2, pts, subs)
	chains := make([][]RegionID, 0, days)
	for _, j := range subs {
		chains = append(chains, rt.ChainOf(j))
	}
	md := m.AbsorbMinted(fr.ID, chains)
	if len(md.Added) == 0 {
		t.Fatal("minted region promoted no rules; test is vacuous")
	}
	if len(md.Removed) != 0 || len(md.Updated) != 0 {
		t.Fatalf("minted replay must only add rules, got %d removed %d updated", len(md.Removed), len(md.Updated))
	}
	applyDelta(t, rules, md)
	checkEquivalent(t, rt, cfg, m, rules)
}
