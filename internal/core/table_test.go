package core

import (
	"bytes"
	"slices"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// samePattern reports whether a and b are the same rule with the same
// confidence and support.
func samePattern(a, b pattern.Pattern) bool {
	return slices.Equal(a.Premise, b.Premise) && a.Consequence == b.Consequence &&
		a.Confidence == b.Confidence && a.Support == b.Support
}

// ruleIdentity is the identity key of a rule: its whole itemset, premise
// and consequence, each region id+1, ascending.
func ruleIdentity(p pattern.Pattern) pattern.IdentityKey {
	var k pattern.IdentityKey
	for i, id := range append(p.Premise[:len(p.Premise):len(p.Premise)], p.Consequence) {
		k[i] = uint32(id) + 1
	}
	slices.Sort(k[:len(p.Premise)+1])
	return k
}

// checkOracle holds every ref of m's engine to the oracle, ref for ref.
func checkOracle(t *testing.T, m *Model, oracle []pattern.Pattern, step string) {
	t.Helper()
	if m.engine.Refs() != len(oracle) {
		t.Fatalf("%s: %d refs, the oracle holds %d", step, m.engine.Refs(), len(oracle))
	}
	for ref, want := range oracle {
		if got := m.engine.Pattern(ref); !samePattern(got, want) {
			t.Fatalf("%s: ref %d reads %v, the oracle %v", step, ref, got, want)
		}
	}
}

// regionsOf lists rt's frequent regions in id order.
func regionsOf(rt *pattern.RegionTable) []*pattern.FrequentRegion {
	out := make([]*pattern.FrequentRegion, rt.Len())
	for id := range out {
		out[id] = rt.Region(pattern.RegionID(id))
	}
	return out
}

// regionsAt lists rt's frequent regions at time offset off, in id order.
func regionsAt(rt *pattern.RegionTable, off int) []*pattern.FrequentRegion {
	var out []*pattern.FrequentRegion
	for _, fr := range regionsOf(rt) {
		if fr.Offset == off {
			out = append(out, fr)
		}
	}
	return out
}

// checkOffsets holds every region of m to its period: the dense
// per-offset tables, and the decoder that refuses any other offset,
// rely on it.
func checkOffsets(t *testing.T, m *Model, step string) {
	t.Helper()
	for _, fr := range regionsOf(m.regions) {
		if fr.Offset < 0 || fr.Offset >= m.params.Period {
			t.Fatalf("%s: region %d at offset %d, outside a period of %d", step, fr.ID, fr.Offset, m.params.Period)
		}
	}
}

// TestRuleTableThroughLife: on every dataset at the fleet's shape, a
// []Pattern oracle follows a model's rules through Train, Save, Load and
// a week of Extends (which insert, update and retire rules, and on Bike
// mint regions), and after every step the engine's table reads as the
// oracle, ref for ref. Train's oracle is batch mining; Load's is the live
// rules in ref order; an Extend's is the rules before it — a view taken
// then, premise and all, must not change, and a rule it retired keeps its
// row — with every live rule as the incremental miner now holds it.
func TestRuleTableThroughLife(t *testing.T) {
	const days = 7
	for _, kind := range datagen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			subs := fleetSubs(t, kind, fleetPeriod, fleetTrainPeriods+days)
			trained, err := TrainSubTrajectories(subs[:fleetTrainPeriods], Params{Period: fleetPeriod})
			if err != nil {
				t.Fatal(err)
			}
			checkOffsets(t, trained, "trained")
			checkOracle(t, trained, pattern.Mine(trained.regions, trained.params.Mining), "trained")

			var buf bytes.Buffer
			if err := trained.Save(&buf); err != nil {
				t.Fatal(err)
			}
			m, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			var oracle []pattern.Pattern
			for ref := 0; ref < trained.engine.Refs(); ref++ {
				if trained.engine.IsLive(ref) {
					oracle = append(oracle, trained.engine.Pattern(ref))
				}
			}
			checkOracle(t, m, oracle, "loaded")

			minted := 0
			for d, day := range subs[fleetTrainPeriods:] {
				views := m.engine.Rules().Patterns()
				kept := make([]pattern.Pattern, len(views))
				for i, v := range views {
					kept[i] = v
					kept[i].Premise = slices.Clone(v.Premise)
				}
				res, err := m.Extend([]trajectory.SubTrajectory{day})
				if err != nil {
					t.Fatal(err)
				}
				minted += res.NewRegions
				checkOffsets(t, m, "extended")
				for i := range views {
					if !samePattern(views[i], kept[i]) {
						t.Fatalf("day %d: the view of ref %d taken before the Extend changed under it", d, i)
					}
				}
				active := make(map[pattern.IdentityKey]pattern.Pattern)
				for _, p := range m.miner.ActiveRules() {
					active[ruleIdentity(p)] = p
				}
				oracle = oracle[:0]
				live := 0
				for ref := 0; ref < m.engine.Refs(); ref++ {
					got := m.engine.Pattern(ref)
					switch {
					case m.engine.IsLive(ref):
						live++
						oracle = append(oracle, active[ruleIdentity(got)])
					case ref < len(kept):
						oracle = append(oracle, kept[ref]) // retired: the row as it was
					default:
						oracle = append(oracle, got) // inserted and retired today: nothing to hold it to
					}
				}
				if live != len(active) {
					t.Fatalf("day %d: %d live refs, the miner holds %d rules", d, live, len(active))
				}
				checkOracle(t, m, oracle, "extended")
			}
			if kind == datagen.Bike && minted == 0 {
				t.Fatal("Bike minted no region: the test no longer grows the key space")
			}
		})
	}
}
