package pattern

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// ruleIdentity is the identity key of a rule: its whole itemset, premise
// and consequence.
func ruleIdentity(p Pattern) IdentityKey {
	return identityOf(append(p.Premise[:len(p.Premise):len(p.Premise)], p.Consequence))
}

// ruleBook is the test's stand-in for the model's engine: the rules the
// deltas have built up, by identity, and a table of them that names each to
// the miner by its row, the way the engine names them by ref.
type ruleBook struct {
	rules map[IdentityKey]Pattern
	table *Table
	tags  []IdentityKey // row -> the identity it was issued for
	gone  []bool        // row -> its rule was removed
}

func newRuleBook() *ruleBook {
	return &ruleBook{rules: make(map[IdentityKey]Pattern), table: NewTable(0, 0)}
}

// applyDelta folds a Delta into the rule book, checking its internal
// consistency: removals name live rules' rows, each once, additions are
// genuinely new (after removals apply), updates touch existing rules and
// change what their row holds.
func applyDelta(t *testing.T, m *IncrementalMiner, book *ruleBook, d Delta) {
	t.Helper()
	m.UseRows(book.table)
	rules := book.rules
	named := func(tag int, what string) IdentityKey {
		if tag < 0 || tag >= len(book.tags) {
			t.Fatalf("delta %s a rule by tag %d, which was never issued", what, tag)
		}
		return book.tags[tag]
	}
	for _, tag := range d.Removed {
		key := named(int(tag), "removed")
		if book.gone[tag] {
			t.Fatalf("delta removed tag %d, whose rule %v went before", tag, key)
		}
		if _, ok := rules[key]; !ok {
			t.Fatalf("delta removed unknown rule %v", key)
		}
		book.gone[tag] = true
		delete(rules, key)
	}
	added := m.Rules(d.Added).Patterns()
	if !slices.IsSortedFunc(added, func(a, b Pattern) int {
		return CompareIdentity(ruleIdentity(a), ruleIdentity(b))
	}) {
		t.Fatal("delta additions out of identity order")
	}
	for i, p := range added {
		key := ruleIdentity(p)
		if _, ok := rules[key]; ok {
			t.Fatalf("delta re-added live rule %v", p)
		}
		rules[key] = p
		m.SetTag(d.Added[i], book.table.Len())
		book.table.Append(p)
		book.tags = append(book.tags, key)
		book.gone = append(book.gone, false)
	}
	for _, s := range d.Updated {
		tag, conf, support := m.Rule(s)
		key := named(tag, "updated")
		p, ok := rules[key]
		if !ok {
			t.Fatalf("delta updated unknown rule %v", key)
		}
		if conf == book.table.Confidence(tag) && support == book.table.Support(tag) {
			t.Fatalf("delta updated rule %v to the confidence %g and support %d its row holds", key, conf, support)
		}
		p.Confidence, p.Support = conf, support
		rules[key] = p
		book.table.Set(tag, conf, support)
	}
}

// wantBatch mines rt from scratch and returns the rules by identity.
func wantBatch(rt *RegionTable, cfg Config) map[IdentityKey]Pattern {
	want := make(map[IdentityKey]Pattern)
	for _, p := range Mine(rt, cfg) {
		want[ruleIdentity(p)] = p
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

// check verifies the tree against first principles: roots name exactly
// the region slots, each a ghost heading a list; every child's premise is
// its parent, one region longer and ending at a later offset; each list
// holds exactly its premise's tracked dependents, so every tracked slot is
// reached once from the roots; every tracked slot's support is the popcount
// of its regions' ANDed bitmaps; no slot keeps a pass's bits; and free
// slots carry nothing.
func (m *IncrementalMiner) check() error {
	free := make(map[int32]bool, len(m.free))
	for _, s := range m.free {
		if free[s] {
			return fmt.Errorf("slot %d is on the free list twice", s)
		}
		free[s] = true
	}
	freeSlot := slot{tag: NoTag, prem: noSlot, head: noSlot, next: noSlot}
	live := 0
	for i := range m.slots {
		s, sl := int32(i), &m.slots[i]
		switch {
		case sl.n == 0 && !free[s]:
			return fmt.Errorf("empty slot %d is not on the free list", s)
		case sl.n == 0 && *sl != freeSlot:
			return fmt.Errorf("free slot %d still carries %+v", s, *sl)
		case sl.n != 0 && free[s]:
			return fmt.Errorf("live slot %d is on the free list", s)
		case sl.n != 0:
			live++
			if sl.flags&(slotQueued|slotFresh) != 0 {
				return fmt.Errorf("slot %d keeps a pass's bits: %+v", s, *sl)
			}
		}
	}
	if len(m.roots) != m.rt.Len() {
		return fmt.Errorf("%d roots for %d regions", len(m.roots), m.rt.Len())
	}
	reached, tracked := 0, 0
	var ids [MaxIdentityLen]RegionID
	var walk func(p int32, n int) error
	walk = func(p int32, n int) error {
		for c := m.slots[p].head; c != noSlot; c = m.slots[c].next {
			sl := &m.slots[c]
			if reached++; reached > live {
				return fmt.Errorf("the lists reach more than the %d live slots", live)
			}
			if sl.prem != p || int(sl.n) != n+1 || free[c] {
				return fmt.Errorf("slot %d on the list of %d names premise %d at length %d", c, p, sl.prem, sl.n)
			}
			if sl.flags&slotTracked == 0 {
				return fmt.Errorf("ghost slot %d is on the list of %d", c, p)
			}
			ids[n] = sl.last
			itemset := ids[:n+1]
			if m.rt.Region(ids[n-1]).Offset >= m.rt.Region(sl.last).Offset {
				return fmt.Errorf("slot %d holds %v, not in ascending time offset", c, itemset)
			}
			if got := m.idsOf(c, make([]RegionID, 0, MaxIdentityLen)); !slices.Equal(got, itemset) {
				return fmt.Errorf("slot %d reads back %v, it sits at %v", c, got, itemset)
			}
			tracked++
			if sup := bitmapSupport(m.rt, itemset); int(sl.support) != sup || sup < m.cfg.MinSupport {
				return fmt.Errorf("slot %d (%v) holds support %d, bitmaps say %d (floor %d)",
					c, itemset, sl.support, sup, m.cfg.MinSupport)
			}
			if sl.flags&slotActive == 0 && sl.tag != NoTag {
				return fmt.Errorf("slot %d (%v) emits no rule and is named %d", c, itemset, sl.tag)
			}
			if err := walk(c, n+1); err != nil {
				return err
			}
		}
		return nil
	}
	for r, root := range m.roots {
		if root == noSlot {
			continue
		}
		if root < 0 || int(root) >= len(m.slots) || free[root] {
			return fmt.Errorf("region %d names root slot %d, which is free or out of range", r, root)
		}
		sl := &m.slots[root]
		if sl.n != 1 || sl.last != RegionID(r) || sl.prem != noSlot || sl.next != noSlot ||
			sl.flags != 0 || sl.tag != NoTag || sl.support != 0 {
			return fmt.Errorf("region %d names root slot %d, which holds %+v", r, root, *sl)
		}
		if sl.head == noSlot {
			return fmt.Errorf("root slot %d of region %d heads no list and was not released", root, r)
		}
		reached++
		ids[0] = RegionID(r)
		if err := walk(root, 1); err != nil {
			return err
		}
	}
	if reached != live || tracked != m.tracked {
		return fmt.Errorf("the roots reach %d of %d live slots, %d tracked (%d counted)", reached, live, tracked, m.tracked)
	}
	return nil
}

func activeByKey(m *IncrementalMiner) map[IdentityKey]Pattern {
	out := make(map[IdentityKey]Pattern)
	for _, p := range m.ActiveRules() {
		out[ruleIdentity(p)] = p
	}
	return out
}

// seedMiner seeds a miner over rt by the walk, as core.Model does when it
// lazily builds its miner, and holds it to the seed the walk replaced:
// every live chain replayed through Update. The two must track the same
// itemsets with the same supports and premises and add the same rules, and
// the seeded miner must pass its own layout check; slot numbering and
// dependents-list order may differ.
func seedMiner(t *testing.T, rt *RegionTable, cfg Config) (*IncrementalMiner, Delta) {
	t.Helper()
	m := NewIncrementalMiner(rt, cfg, 0)
	d := m.Seed()
	if err := m.check(); err != nil {
		t.Fatal(err)
	}
	if len(d.Updated) != 0 || len(d.Removed) != 0 {
		t.Fatalf("seeding updated %d rules and removed %d; it may only add", len(d.Updated), len(d.Removed))
	}
	replay := NewIncrementalMiner(rt, cfg, 0)
	var chains [][]RegionID
	for j := 0; j < rt.NumSubTrajectories(); j++ {
		if ch := rt.ChainOf(j); len(ch) > 0 {
			chains = append(chains, ch)
		}
	}
	rd := replay.Update(chains, nil)
	if got, want := trackedState(m), trackedState(replay); !maps.Equal(got, want) {
		t.Fatalf("the walk seeds %d tracked itemsets, the replay %d, and they differ", len(got), len(want))
	}
	if got, want := m.Rules(d.Added), replay.Rules(rd.Added); !reflect.DeepEqual(got, want) {
		t.Fatalf("the walk seeds %d rules, the replay %d, and they differ", got.Len(), want.Len())
	}
	return m, d
}

// trackedItemset is what the miner holds for a tracked itemset, less its
// slot numbers.
type trackedItemset struct {
	support int32
	premise IdentityKey
}

// trackedState maps every itemset m tracks to its support and its premise.
func trackedState(m *IncrementalMiner) map[IdentityKey]trackedItemset {
	out := make(map[IdentityKey]trackedItemset, m.tracked)
	buf := make([]RegionID, 0, MaxIdentityLen)
	for s := range m.slots {
		if sl := &m.slots[s]; sl.flags&slotTracked != 0 {
			out[identityOf(m.idsOf(int32(s), buf))] = trackedItemset{sl.support, identityOf(m.idsOf(sl.prem, buf))}
		}
	}
	return out
}

func TestIncrementalSeedMatchesBatchJane(t *testing.T) {
	rt := janeTable(t)
	cfg := Config{MinSupport: 4, MinConfidence: 0.3}
	m, d := seedMiner(t, rt, cfg)
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
			m, d := seedMiner(t, rt, cfg)
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

// TestAbsorbMintedMatchesBatch mints a region at the last offset and
// checks the restricted replay promotes exactly the rules a batch mine
// over the grown table finds. (FuzzMinerOps mints at any offset.)
func TestAbsorbMintedMatchesBatch(t *testing.T) {
	rt := janeTable(t)
	cfg := Config{MinSupport: 4, MinConfidence: 0.3}
	m, d := seedMiner(t, rt, cfg)
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
