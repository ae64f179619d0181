package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// ruleBook is the test's stand-in for the model's engine: the rules the
// deltas have built up, by identity, each named to the miner by a tag the
// way the engine names them by ref.
type ruleBook struct {
	rules map[IdentityKey]Pattern
	tags  []IdentityKey // tag -> the identity it was issued for
}

func newRuleBook() *ruleBook { return &ruleBook{rules: make(map[IdentityKey]Pattern)} }

// applyDelta folds a Delta into the rule book, checking its internal
// consistency: removals name live rules, additions are genuinely new
// (after removals apply), updates touch existing rules.
func applyDelta(t *testing.T, m *IncrementalMiner, book *ruleBook, d Delta) {
	t.Helper()
	rules := book.rules
	named := func(tag int, what string) IdentityKey {
		if tag < 0 || tag >= len(book.tags) {
			t.Fatalf("delta %s a rule by tag %d, which was never issued", what, tag)
		}
		return book.tags[tag]
	}
	if !slices.IsSortedFunc(d.Removed, func(a, b RuleRemoval) int { return CompareIdentity(a.Key, b.Key) }) {
		t.Fatal("delta removals out of identity order")
	}
	for _, r := range d.Removed {
		key := named(int(r.Tag), "removed")
		if key != r.Key {
			t.Fatalf("delta removed tag %d as %v, it was issued for %v", r.Tag, r.Key, key)
		}
		if _, ok := rules[key]; !ok {
			t.Fatalf("delta removed unknown rule %v", key)
		}
		delete(rules, key)
	}
	added := m.Rules(d.Added)
	if !slices.IsSortedFunc(added, func(a, b Pattern) int {
		return CompareIdentity(PatternIdentity(a), PatternIdentity(b))
	}) {
		t.Fatal("delta additions out of identity order")
	}
	for i, p := range added {
		key := PatternIdentity(p)
		if _, ok := rules[key]; ok {
			t.Fatalf("delta re-added live rule %v", p)
		}
		rules[key] = p
		m.SetTag(d.Added[i], len(book.tags))
		book.tags = append(book.tags, key)
	}
	for _, s := range d.Updated {
		tag, conf, support := m.Rule(s)
		key := named(tag, "updated")
		p, ok := rules[key]
		if !ok {
			t.Fatalf("delta updated unknown rule %v", key)
		}
		p.Confidence, p.Support = conf, support
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
// shadow copy) against a from-scratch batch mine over the same table, and
// the miner's layout against its own invariants.
func checkEquivalent(t *testing.T, rt *RegionTable, cfg Config, m *IncrementalMiner, book *ruleBook) {
	t.Helper()
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	want := wantBatch(rt, cfg)
	for _, got := range [2]map[IdentityKey]Pattern{activeByKey(m), book.rules} {
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
			if !slices.Equal(gp.Premise, wp.Premise) || gp.Consequence != wp.Consequence {
				t.Fatalf("rule %v: incremental spells it %v", wp, gp)
			}
		}
	}
}

// check verifies the slab layout against first principles: every tracked
// slot's support is the popcount of its regions' ANDed bitmaps, every
// dependents list holds exactly the tracked itemsets with that premise,
// free slots carry no flag, tag or link, and the index holds exactly the
// live slots.
func (m *IncrementalMiner) check() error {
	free := make(map[int32]bool, len(m.free))
	for _, s := range m.free {
		if free[s] {
			return fmt.Errorf("slot %d is on the free list twice", s)
		}
		free[s] = true
	}
	live, tracked := 0, 0
	dependents := make(map[int32][]int32) // premise slot -> tracked slots naming it
	for i := range m.slots {
		s, sl := int32(i), &m.slots[i]
		linked := sl.prem != noSlot || sl.next != noSlot || sl.prev != noSlot
		if sl.n == 0 {
			if !free[s] {
				return fmt.Errorf("empty slot %d is not on the free list", s)
			}
			if sl.flags != 0 || sl.tag != NoTag || linked || sl.head != noSlot {
				return fmt.Errorf("free slot %d still carries %+v", s, *sl)
			}
			continue
		}
		if free[s] {
			return fmt.Errorf("live slot %d is on the free list", s)
		}
		live++
		ids := make([]RegionID, 0, sl.n)
		for _, id := range m.idsOf(s) {
			ids = append(ids, RegionID(id))
		}
		if got, ok := m.index[identityOf(ids)]; !ok || got != s {
			return fmt.Errorf("slot %d (%v) is indexed at %d (%v)", s, ids, got, ok)
		}
		if sl.flags&slotTracked == 0 {
			if sl.flags != 0 || sl.tag != NoTag || linked {
				return fmt.Errorf("ghost slot %d (%v) still carries %+v", s, ids, *sl)
			}
			if sl.head == noSlot {
				return fmt.Errorf("ghost slot %d (%v) heads no list and was not released", s, ids)
			}
			continue
		}
		tracked++
		if sup := bitmapSupport(m.rt, ids); int(sl.support) != sup || sup < m.cfg.MinSupport {
			return fmt.Errorf("slot %d (%v) holds support %d, bitmaps say %d (floor %d)",
				s, ids, sl.support, sup, m.cfg.MinSupport)
		}
		if p, ok := m.index[identityOf(ids[:len(ids)-1])]; !ok || p != sl.prem {
			return fmt.Errorf("slot %d (%v) names premise slot %d, index says %d (%v)", s, ids, sl.prem, p, ok)
		}
		if len(ids) > 2 && m.slots[sl.prem].flags&slotTracked == 0 {
			return fmt.Errorf("slot %d (%v) is tracked and its premise is not", s, ids)
		}
		dependents[sl.prem] = append(dependents[sl.prem], s)
	}
	if live != len(m.index) || tracked != m.tracked {
		return fmt.Errorf("%d live slots (%d tracked) under %d index entries (%d counted)",
			live, tracked, len(m.index), m.tracked)
	}
	for i := range m.slots {
		var list []int32
		for s, prev := m.slots[i].head, noSlot; s != noSlot; prev, s = s, m.slots[s].next {
			if m.slots[s].prev != prev || len(list) > len(m.slots) {
				return fmt.Errorf("dependents list of slot %d is broken at %d", i, s)
			}
			list = append(list, s)
		}
		want := dependents[int32(i)]
		slices.Sort(list)
		if !slices.Equal(list, want) {
			return fmt.Errorf("slot %d lists dependents %v, the tracked itemsets naming it are %v", i, list, want)
		}
	}
	return nil
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
	book := newRuleBook()
	applyDelta(t, m, book, d)
	checkEquivalent(t, rt, cfg, m, book)
	if len(book.rules) == 0 {
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
// build time. The live window first grows, then drains to a dozen days —
// most itemsets fall below min-support and their slots are freed — then
// grows again, so freed slots are reused.
func TestIncrementalMatchesBatchUnderChurn(t *testing.T) {
	phases := []struct{ steps, absorb, retire int }{{8, 4, 2}, {7, 2, 6}, {8, 6, 2}}
	for _, cfg := range []Config{
		{MinSupport: 4, MinConfidence: 0.3},
		// Longer itemsets under a reach tighter than the span: a premise
		// can then be no itemset the batch miner generates, and nothing
		// built on it may be tracked either.
		{MinSupport: 4, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 1},
		{MinSupport: 4, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 2},
	} {
		long := 0
		for _, seed := range []int64{1, 2, 3} {
			rng := rand.New(rand.NewSource(seed))
			const n, P, initial = 120, 12, 24
			all := randomGroups(rng, n, P)
			rt := DiscoverRegions(subset(all, 0, initial), 30, 4)
			if rt.Len() < 5 {
				t.Fatalf("seed %d: only %d regions; test is vacuous", seed, rt.Len())
			}
			m, d := seedMiner(rt, cfg)
			book := newRuleBook()
			applyDelta(t, m, book, d)
			checkEquivalent(t, rt, cfg, m, book)

			next, retired := initial, 0
			freed, reused := false, false
			for _, ph := range phases {
				for step := 0; step < ph.steps; step++ {
					res, err := rt.AbsorbDetailed(subset(all, next, next+ph.absorb))
					if err != nil {
						t.Fatal(err)
					}
					next += ph.absorb
					// Retire the oldest live days alongside each absorb, as
					// a sliding history window would.
					var gone [][]RegionID
					for k := 0; k < ph.retire; k++ {
						if ch := rt.ChainOf(retired); len(ch) > 0 {
							gone = append(gone, ch)
						}
						rt.ClearSub(retired)
						retired++
					}
					idle := len(m.free)
					applyDelta(t, m, book, m.Update(res.Chains, gone))
					checkEquivalent(t, rt, cfg, m, book)
					freed = freed || len(m.free) > idle
					reused = reused || len(m.free) < idle
					for _, p := range book.rules {
						if len(p.Premise) >= 3 {
							long++
						}
					}
				}
			}
			if len(book.rules) == 0 {
				t.Fatalf("seed %d: churn left zero rules; test is vacuous", seed)
			}
			if !freed || !reused {
				t.Fatalf("seed %d: slots freed %v, reused %v; the churn never recycled a slot", seed, freed, reused)
			}
		}
		if cfg.MaxLength == 4 && cfg.ConsequenceReach == 2 && long == 0 {
			t.Fatalf("%+v never held a four-region rule; the row is vacuous", cfg)
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
	book := newRuleBook()
	applyDelta(t, m, book, d)

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
	applyDelta(t, m, book, m.Update(res.Chains, nil))
	checkEquivalent(t, rt, cfg, m, book)

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
	applyDelta(t, m, book, md)
	checkEquivalent(t, rt, cfg, m, book)
}
