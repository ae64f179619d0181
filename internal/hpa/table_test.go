package hpa

import (
	"math/rand"
	"slices"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// clonePattern copies p, premise included, so nothing the engine does
// later can reach the copy.
func clonePattern(p pattern.Pattern) pattern.Pattern {
	p.Premise = slices.Clone(p.Premise)
	return p
}

// samePattern reports whether a and b are the same rule with the same
// confidence and support.
func samePattern(a, b pattern.Pattern) bool {
	return slices.Equal(a.Premise, b.Premise) && a.Consequence == b.Consequence &&
		a.Confidence == b.Confidence && a.Support == b.Support
}

// checkRows holds every ref's row to the oracle: the materialised view
// Pattern returns is the oracle's pattern.
func checkRows(t *testing.T, e *Engine, oracle []pattern.Pattern, step string) {
	t.Helper()
	if e.Refs() != len(oracle) {
		t.Fatalf("%s: %d refs, the oracle holds %d", step, e.Refs(), len(oracle))
	}
	for ref, want := range oracle {
		if got := e.Pattern(ref); !samePattern(got, want) {
			t.Fatalf("%s: ref %d reads %v (support %d), the oracle %v (support %d)", step, ref, got, got.Support, want, want.Support)
		}
	}
}

// TestRuleTableMatchesPatterns: the engine's rule table reads, ref by ref,
// as the []Pattern the engine used to hold, through a random life of
// inserts, batched updates and removals on every dataset. A view taken
// before an insert — its premise a slice of the arena the insert appends
// to — is unchanged after it, and so is one taken before an update.
func TestRuleTableMatchesPatterns(t *testing.T) {
	const period = 60
	for _, kind := range datagen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, rt, all := datasetFixture(t, kind)
			rng := rand.New(rand.NewSource(int64(kind) + 1))
			cut := len(all) / 2
			var oracle []pattern.Pattern
			for _, p := range all[:cut] {
				oracle = append(oracle, clonePattern(p))
			}
			held := all[cut:]
			e, err := NewEngine(rt, pattern.TableOf(all[:cut]), Config{Period: period}, tpt.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkRows(t, e, oracle, "built")
			for step := 0; len(held) > 0 || step < 40; step++ {
				views := e.rules.Patterns()
				kept := make([]pattern.Pattern, len(views))
				for i, v := range views {
					kept[i] = clonePattern(v)
				}
				switch op := rng.Intn(3); {
				case op == 0 && len(held) > 0:
					n := min(len(held), 1+rng.Intn(512))
					refs := insertAll(e, held[:n]...)
					for i, p := range held[:n] {
						if refs[i] != len(oracle) {
							t.Fatalf("insert %d took ref %d, want %d", i, refs[i], len(oracle))
						}
						oracle = append(oracle, clonePattern(p))
					}
					held = held[n:]
				case op == 1:
					var ups []ruleUpdate
					for range 1 + rng.Intn(32) {
						ref := rng.Intn(e.Refs())
						ups = append(ups, ruleUpdate{ref, float64(rng.Intn(20)) / 20, rng.Intn(50)})
					}
					updateAll(e, ups)
					for _, u := range ups {
						if e.IsLive(u.Ref) {
							oracle[u.Ref].Confidence, oracle[u.Ref].Support = u.Conf, u.Support
						}
					}
				default:
					if ref := rng.Intn(e.Refs()); e.IsLive(ref) {
						retire(e, ref) // the row stays, as it was
					}
				}
				checkRows(t, e, oracle, "after a step")
				checkLiveCounts(t, e)
				for i := range views {
					if !samePattern(views[i], kept[i]) {
						t.Fatalf("the view of ref %d taken before the step changed under it", i)
					}
				}
			}
		})
	}
}
