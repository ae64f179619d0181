package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// livePatternsByKey indexes the model's live rules by identity.
func livePatternsByKey(t *testing.T, m *Model) map[pattern.IdentityKey]pattern.Pattern {
	t.Helper()
	out := make(map[pattern.IdentityKey]pattern.Pattern)
	for ref, p := range m.engine.Rules().Patterns() {
		if !m.Engine().IsLive(ref) {
			continue
		}
		key := ruleIdentity(p)
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate live pattern %v", p)
		}
		out[key] = p
	}
	if len(out) != m.NumPatterns() {
		t.Fatalf("live set %d != NumPatterns %d", len(out), m.NumPatterns())
	}
	return out
}

// requireBatchEquivalent re-mines the model's own region table from
// scratch and requires the live rule set to match exactly: same rules,
// same supports, bit-identical confidences. The batch miner reads the
// live visitor bitmaps, so it is ground truth for any absorb/retire
// history (as long as no regions were minted, which would unsort the
// table's offsets).
func requireBatchEquivalent(t *testing.T, m *Model, when string) {
	t.Helper()
	want := pattern.Mine(m.regions, m.Params().Mining)
	got := livePatternsByKey(t, m)
	if len(got) != len(want) {
		t.Fatalf("%s: %d live rules, batch mines %d", when, len(got), len(want))
	}
	for _, wp := range want {
		gp, ok := got[ruleIdentity(wp)]
		if !ok {
			t.Fatalf("%s: batch rule %v missing from live set", when, wp)
		}
		if gp.Support != wp.Support || gp.Confidence != wp.Confidence {
			t.Fatalf("%s: rule %v has support=%d conf=%v, batch says support=%d conf=%v",
				when, wp.Premise, gp.Support, gp.Confidence, wp.Support, wp.Confidence)
		}
	}
	if m.TreeStats().Items != len(want) {
		t.Fatalf("%s: tree holds %d items for %d live rules", when, m.TreeStats().Items, len(want))
	}
}

// TestExtendEquivalentToBatchMiner pins the tentpole correctness claim on
// all four datasets: a model grown by repeated incremental Extends holds
// exactly the rule set batch mining over the same visitor bitmaps produces
// — same rules, same supports, bit-identical confidences — at every step,
// with region discovery off and on. Minting appends regions out of offset
// order, which batch mining's walk orders itself; the level-wise join
// before it assumed ids ascend with offsets and mined 4 938 rules where
// the Car model held 5 071.
func TestExtendEquivalentToBatchMiner(t *testing.T) {
	minted := 0
	for _, kind := range datagen.Kinds {
		t.Run(fmt.Sprint(kind), func(t *testing.T) {
			spec := datagen.DefaultSpec(kind, 19)
			spec.Period = 60
			spec.SubTrajectories = 36
			subs, err := datagen.Generate(spec).Decompose(spec.Period)
			if err != nil {
				t.Fatal(err)
			}
			for _, discover := range []bool{false, true} {
				m, err := TrainSubTrajectories(subs[:12], Params{
					Period:                 spec.Period,
					DisableRegionDiscovery: !discover,
				})
				if err != nil {
					t.Fatal(err)
				}
				for n := 12; n < len(subs); n += 4 {
					res, err := m.Extend(subs[n:min(n+4, len(subs))])
					if err != nil {
						t.Fatal(err)
					}
					minted += res.NewRegions
					requireBatchEquivalent(t, m, fmt.Sprintf("discovery %v, after %d subs", discover, min(n+4, len(subs))))
				}
			}
		})
	}
	if minted == 0 {
		t.Fatal("no Extend minted a region; the discovering half shows nothing")
	}
}

// TestExtendWindowEquivalentToBatchMiner repeats the equivalence check
// with a sliding history window: retirement clears the expired days'
// visitor bits, and the batch miner — reading those same bitmaps — must
// still agree exactly with the incrementally maintained rules.
func TestExtendWindowEquivalentToBatchMiner(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 5)
	spec.Period = 60
	spec.SubTrajectories = 40
	subs, err := datagen.Generate(spec).Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	const window = 14
	m, err := TrainSubTrajectories(subs[:12], Params{
		Period:                 spec.Period,
		HistoryWindow:          window,
		DisableRegionDiscovery: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	retired := 0
	for n := 12; n < len(subs); n += 3 {
		hi := n + 3
		if hi > len(subs) {
			hi = len(subs)
		}
		res, err := m.Extend(subs[n:hi])
		if err != nil {
			t.Fatal(err)
		}
		retired += res.RetiredSubTrajectories
		requireBatchEquivalent(t, m, fmt.Sprintf("after %d subs (window %d)", hi, window))
		// Supports cannot exceed the live window.
		for _, p := range livePatternsByKey(t, m) {
			if p.Support > window {
				t.Fatalf("pattern support %d exceeds window %d", p.Support, window)
			}
		}
	}
	if want := len(subs) - window; retired != want {
		t.Fatalf("retired %d sub-trajectories, want %d", retired, want)
	}
}

// replaySeed gives m the miner the first Extend built before the walk:
// every live chain replayed through Update, then the same reconcile. It is
// the seed oracle and lives in test code only.
func replaySeed(m *Model) {
	m.miner = pattern.NewIncrementalMiner(m.regions, m.params.Mining, m.engine.LivePatterns())
	var chains [][]pattern.RegionID
	for j := 0; j < m.regions.NumSubTrajectories(); j++ {
		if ch := m.regions.ChainOf(j); len(ch) > 0 {
			chains = append(chains, ch)
		}
	}
	m.reconcile(m.miner.Update(chains, nil))
}

// TestSeedMatchesReplayTwin: two models loaded from one fleet-shaped
// stream, one seeded by the walk on its first Extend and its twin by
// replaying every chain, return equal results and save the same bytes
// after each of twelve Extends — every kind, history unbounded and in a
// window of eight periods. After eight Extends both are saved, loaded and
// seeded again, so the second seeding reads a table the Extends minted
// regions into, out of offset order.
func TestSeedMatchesReplayTwin(t *testing.T) {
	const extends, reseedAt = 12, 8
	minted := 0
	for _, kind := range datagen.Kinds {
		subs := fleetSubs(t, kind, fleetPeriod, fleetTrainPeriods+extends)
		for _, window := range []int{0, 8} {
			t.Run(fmt.Sprintf("%v/window=%d", kind, window), func(t *testing.T) {
				trained, err := TrainSubTrajectories(subs[:fleetTrainPeriods], Params{Period: fleetPeriod, HistoryWindow: window})
				if err != nil {
					t.Fatal(err)
				}
				var stream bytes.Buffer
				if err := trained.Save(&stream); err != nil {
					t.Fatal(err)
				}
				saved := [2][]byte{stream.Bytes(), stream.Bytes()}
				var models [2]*Model
				for i, day := range subs[fleetTrainPeriods:] {
					if i == 0 || i == reseedAt {
						for j := range models {
							if models[j], err = Load(bytes.NewReader(saved[j])); err != nil {
								t.Fatal(err)
							}
						}
						replaySeed(models[1])
					}
					walk, twin := models[0], models[1]
					got, err := walk.Extend([]trajectory.SubTrajectory{day})
					if err != nil {
						t.Fatal(err)
					}
					want, err := twin.Extend([]trajectory.SubTrajectory{day})
					if err != nil {
						t.Fatal(err)
					}
					// The walk seeds inside the first Extend after each load; the
					// twin was seeded by replay before it.
					if got.Seeded != (i == 0 || i == reseedAt) || want.Seeded {
						t.Fatalf("extend %d: walk-seeded reports seeding %v, replay-seeded %v", i, got.Seeded, want.Seeded)
					}
					got.Seeded, got.SeedDuration = false, 0
					if got != want {
						t.Fatalf("extend %d: walk-seeded %+v, replay-seeded %+v", i, got, want)
					}
					if i < reseedAt {
						minted += got.NewRegions
					}
					for j, m := range models {
						var buf bytes.Buffer
						if err := m.Save(&buf); err != nil {
							t.Fatal(err)
						}
						saved[j] = buf.Bytes()
					}
					if !bytes.Equal(saved[0], saved[1]) {
						t.Fatalf("extend %d: the walk-seeded model saves %d bytes unlike its twin's %d", i, len(saved[0]), len(saved[1]))
					}
					if a, _ := walk.MinerItemsets(); a != twin.miner.TrackedItemsets() {
						t.Fatalf("extend %d: %d itemsets tracked, the twin %d", i, a, twin.miner.TrackedItemsets())
					}
				}
			})
		}
	}
	if minted == 0 {
		t.Fatal("no Extend before the second seeding minted a region; it reads a table like the first")
	}
}

// TestMiningStatsAreTheTrainsRecord: Extend moves the live rule set, not
// the record of the mining run the model came from. It used to write the
// live count into Rules beside the run's FrequentItemsets and
// UnprunedRules, and PatternReduction then compared two rule sets.
func TestMiningStatsAreTheTrainsRecord(t *testing.T) {
	subs := fleetSubs(t, datagen.Cow, fleetPeriod, fleetTrainPeriods+fleetExtendDays)
	m, err := TrainSubTrajectories(subs[:fleetTrainPeriods], Params{Period: fleetPeriod, Mining: pattern.Config{CountUnpruned: true}})
	if err != nil {
		t.Fatal(err)
	}
	mined := m.MiningStats()
	if mined.Rules != m.NumPatterns() || mined.UnprunedRules <= mined.Rules {
		t.Fatalf("trained %d rules, the record says %+v", m.NumPatterns(), mined)
	}
	for _, day := range subs[fleetTrainPeriods:] {
		if _, err := m.Extend([]trajectory.SubTrajectory{day}); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumPatterns() == mined.Rules {
		t.Fatalf("the extends left %d rules as trained; the test shows nothing", m.NumPatterns())
	}
	if got := m.MiningStats(); got != mined {
		t.Fatalf("after extending to %d live rules the record reads %+v, trained %+v", m.NumPatterns(), got, mined)
	}
}

// TestExtendMintsRegions drives the full path: days that repeatedly visit
// a spot no trained region covers must first count as unmatched, then —
// once the per-offset buffer can support a cluster — mint a new frequent
// region, widen the key space, and promote patterns through it, all while
// the model keeps answering queries.
func TestExtendMintsRegions(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Bike, 23)
	spec.Period = 60
	spec.SubTrajectories = 24
	subs, err := datagen.Generate(spec).Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs[:16], Params{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	regionsBefore := m.NumRegions()

	// Rewrite a window of each remaining day to a far-away haunt the
	// training data never visited; day-to-day jitter keeps DBSCAN honest.
	far := geom.Pt(90000, 90000)
	novel := make([]trajectory.SubTrajectory, 0, len(subs)-16)
	for i, s := range subs[16:] {
		cp := trajectory.SubTrajectory{Index: s.Index, Points: append([]geom.Point(nil), s.Points...)}
		for off := 20; off < 30; off++ {
			cp.Points[off] = geom.Pt(far.X+float64(i), far.Y+float64(off))
		}
		novel = append(novel, cp)
	}

	var unmatched, mintedRegions, newPatterns int
	for _, day := range novel {
		res, err := m.Extend([]trajectory.SubTrajectory{day})
		if err != nil {
			t.Fatal(err)
		}
		unmatched += res.UnmatchedPoints
		mintedRegions += res.NewRegions
		newPatterns += res.NewPatterns
		if m.TreeStats().Items != m.NumPatterns() {
			t.Fatalf("tree items %d != live patterns %d", m.TreeStats().Items, m.NumPatterns())
		}
	}
	if unmatched == 0 {
		t.Fatal("no unmatched points counted for novel movement")
	}
	if mintedRegions == 0 {
		t.Fatal("no region minted from the repeated novel haunt")
	}
	if m.NumRegions() != regionsBefore+mintedRegions {
		t.Fatalf("region table has %d regions, want %d + %d minted",
			m.NumRegions(), regionsBefore, mintedRegions)
	}
	// A minted region must be locatable where the novel points landed.
	if _, ok := m.regions.Locate(25, geom.Pt(far.X+3, far.Y+25)); !ok {
		t.Fatal("novel haunt not covered by any minted region")
	}

	// End-to-end: the grown model still answers queries.
	day := subs[20]
	base := (16 + len(novel)) * spec.Period
	var recent []trajectory.TimedPoint
	for off := 0; off < 10; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	if _, err := m.Predict(recent, base+25, 1); err != nil {
		t.Fatal(err)
	}
}

// TestExtendDisableRegionDiscovery: with discovery off the same novel
// movement counts as unmatched forever and never changes the region set.
func TestExtendDisableRegionDiscovery(t *testing.T) {
	spec := datagen.DefaultSpec(datagen.Cow, 29)
	spec.Period = 60
	spec.SubTrajectories = 20
	subs, err := datagen.Generate(spec).Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs[:12], Params{Period: spec.Period, DisableRegionDiscovery: true})
	if err != nil {
		t.Fatal(err)
	}
	regions := m.NumRegions()
	far := geom.Pt(80000, 80000)
	for i, s := range subs[12:] {
		cp := trajectory.SubTrajectory{Index: s.Index, Points: append([]geom.Point(nil), s.Points...)}
		for off := 5; off < 12; off++ {
			cp.Points[off] = geom.Pt(far.X+float64(i), far.Y)
		}
		res, err := m.Extend([]trajectory.SubTrajectory{cp})
		if err != nil {
			t.Fatal(err)
		}
		if res.UnmatchedPoints == 0 {
			t.Fatal("novel points not counted as unmatched")
		}
		if res.NewRegions != 0 {
			t.Fatal("region minted with discovery disabled")
		}
	}
	if m.NumRegions() != regions {
		t.Fatalf("region set changed: %d -> %d", regions, m.NumRegions())
	}
}

// BenchmarkExtend measures the per-period incremental update cost as
// history accumulates; with delta mining it must not grow with the number
// of periods already absorbed.
func BenchmarkExtend(b *testing.B) {
	spec := datagen.DefaultSpec(datagen.Bike, 41)
	spec.Period = 300
	spec.SubTrajectories = 64
	subs, err := datagen.Generate(spec).Decompose(spec.Period)
	if err != nil {
		b.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs[:32], Params{Period: spec.Period})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the miner outside the timed region.
	if _, err := m.Extend(subs[32:33]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		day := subs[33+i%(len(subs)-33)]
		if _, err := m.Extend([]trajectory.SubTrajectory{day}); err != nil {
			b.Fatal(err)
		}
	}
}

// identityReconcile is reconcile as it bound a live ref before refs were
// bound by their rows: the row's itemset through its identity key — region
// ids ascending, an order minted regions break — and back to ascending time
// offset for the miner's lookup. It is the row bind's oracle and lives in
// test code only.
func identityReconcile(m *Model, seeded pattern.Delta) {
	var d pattern.Delta
	for ref, refs := 0, m.engine.Refs(); ref < refs; ref++ {
		if !m.engine.IsLive(ref) {
			continue
		}
		cur := m.engine.Pattern(ref)
		var ids []pattern.RegionID
		for _, id := range ruleIdentity(cur) {
			if id == 0 {
				break
			}
			ids = append(ids, pattern.RegionID(id-1))
		}
		slices.SortFunc(ids, func(a, b pattern.RegionID) int { return m.regions.Region(a).Offset - m.regions.Region(b).Offset })
		s, ok := m.miner.Bind(ids, ref)
		if !ok {
			d.Removed = append(d.Removed, int32(ref))
		} else if _, conf, support := m.miner.Rule(s); cur.Confidence != conf || cur.Support != support {
			d.Updated = append(d.Updated, s)
		}
	}
	m.miner.UseRows(m.engine.Rules())
	for _, s := range seeded.Added {
		if ref, _, _ := m.miner.Rule(s); ref == pattern.NoTag {
			d.Added = append(d.Added, s)
		}
	}
	m.applyDelta(d, new(ExtendResult))
}

// disturb makes m's engine drift from what a seeding derives, in one Apply:
// every seventh live ref removed, every fifth other live one reweighed, and
// the first live rule it keeps indexed a second time.
func disturb(m *Model) {
	var retired []int32
	var reweigh []int
	twin := pattern.NewTable(1, 0)
	for ref := 0; ref < m.engine.Refs(); ref++ {
		switch {
		case !m.engine.IsLive(ref):
		case ref%7 == 3:
			retired = append(retired, int32(ref))
		case ref%5 == 1:
			reweigh = append(reweigh, ref)
		case twin.Len() == 0:
			twin.Append(m.engine.Pattern(ref))
		}
	}
	m.engine.Apply(retired, len(reweigh), func(i int) (int, float64, int) {
		return reweigh[i], m.engine.Pattern(reweigh[i]).Confidence / 2, 1
	}, twin)
}

// TestRowBindMatchesIdentityBind: reconcile, binding each live ref by its
// table row, binds, removes, updates and inserts exactly what the
// identity-keyed bind does — every ref's row and liveness, and every seeded
// rule's ref, equal — on four kinds, each trained, loaded, and loaded after
// eight Extends that mint regions into Bike's table (its rows then no longer
// ascend by id), history unbounded and in a window of eight; each as it
// stands and after drift that the reconcile must repair.
func TestRowBindMatchesIdentityBind(t *testing.T) {
	const extends = 8
	minted, idOrderBroken := 0, false
	for _, kind := range datagen.Kinds {
		subs := fleetSubs(t, kind, fleetPeriod, fleetTrainPeriods+extends)
		for _, window := range []int{0, 8} {
			params := Params{Period: fleetPeriod, HistoryWindow: window}
			train := func() *Model {
				m, err := TrainSubTrajectories(subs[:fleetTrainPeriods], params)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			save := func(m *Model) []byte {
				var buf bytes.Buffer
				if err := m.Save(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			load := func(stream []byte) func() *Model {
				return func() *Model {
					m, err := Load(bytes.NewReader(stream))
					if err != nil {
						t.Fatal(err)
					}
					return m
				}
			}
			grown := train()
			for _, day := range subs[fleetTrainPeriods:] {
				res, err := grown.Extend([]trajectory.SubTrajectory{day})
				if err != nil {
					t.Fatal(err)
				}
				minted += res.NewRegions
			}
			for ref := 0; ref < grown.engine.Refs(); ref++ {
				p := grown.engine.Pattern(ref)
				ids := append(p.Premise[:len(p.Premise):len(p.Premise)], p.Consequence)
				idOrderBroken = idOrderBroken || grown.engine.IsLive(ref) && !slices.IsSorted(ids)
			}
			stages := []struct {
				name string
				make func() *Model
			}{{"trained", train}, {"loaded", load(save(train()))}, {"extended", load(save(grown))}}
			for _, stage := range stages {
				for _, drift := range []bool{false, true} {
					name := fmt.Sprintf("%v/window=%d/%s/drift=%v", kind, window, stage.name, drift)
					row, ident := stage.make(), stage.make()
					if drift {
						disturb(row)
						disturb(ident)
					}
					refs := row.engine.Refs()
					seed := func(m *Model) pattern.Delta {
						m.miner = pattern.NewIncrementalMiner(m.regions, m.params.Mining, m.engine.LivePatterns())
						return m.miner.Seed()
					}
					d := seed(row)
					row.reconcile(d)
					di := seed(ident)
					identityReconcile(ident, di)
					if !slices.Equal(d.Added, di.Added) {
						t.Fatalf("%s: the twins seeded different slots", name)
					}
					for _, s := range d.Added {
						rTag, rConf, rSup := row.miner.Rule(s)
						iTag, iConf, iSup := ident.miner.Rule(s)
						if rTag != iTag || rConf != iConf || rSup != iSup {
							t.Fatalf("%s: slot %d bound to ref %d, the identity bind's to %d", name, s, rTag, iTag)
						}
					}
					if row.engine.Refs() != ident.engine.Refs() {
						t.Fatalf("%s: %d refs after the row bind, %d after the identity bind", name, row.engine.Refs(), ident.engine.Refs())
					}
					for ref := 0; ref < row.engine.Refs(); ref++ {
						if row.engine.IsLive(ref) != ident.engine.IsLive(ref) || !samePattern(row.engine.Pattern(ref), ident.engine.Pattern(ref)) {
							t.Fatalf("%s: ref %d is %v live %v, the identity bind's %v live %v", name, ref,
								row.engine.Pattern(ref), row.engine.IsLive(ref), ident.engine.Pattern(ref), ident.engine.IsLive(ref))
						}
					}
					if drift && row.engine.LivePatterns() > 10 && row.engine.Refs() == refs {
						t.Fatalf("%s: the reconcile inserted nothing; the drift shows nothing", name)
					}
					requireBatchEquivalent(t, row, name)
				}
			}
		}
	}
	if minted == 0 || !idOrderBroken {
		t.Fatalf("the Extends minted %d regions and left rows ascending by id: %v; the extended stage shows nothing", minted, !idOrderBroken)
	}
}
