package hpa

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"hpm/internal/bitkey"
	"hpm/internal/datagen"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// ruleUpdate is one rule's new confidence and support.
type ruleUpdate struct {
	Ref     int
	Conf    float64
	Support int
}

// updateAll hands ups to one Apply.
func updateAll(e *Engine, ups []ruleUpdate) int {
	return e.Apply(nil, len(ups), func(i int) (int, float64, int) { return ups[i].Ref, ups[i].Conf, ups[i].Support }, pattern.NewTable(0, 0))
}

// insertAll indexes ps through one Apply and returns the refs they took.
func insertAll(e *Engine, ps ...pattern.Pattern) []int {
	refs := make([]int, len(ps))
	for i := range refs {
		refs[i] = e.Refs() + i
	}
	e.Apply(nil, 0, nil, pattern.TableOf(ps))
	return refs
}

// retire retires refs, each live, through one Apply.
func retire(e *Engine, refs ...int) {
	retired := make([]int32, len(refs))
	for i, ref := range refs {
		retired[i] = int32(ref)
	}
	e.Apply(retired, 0, nil, pattern.NewTable(0, 0))
}

// updateOne is the rule-by-rule update, kept as Apply's oracle: the
// rule's ranked list marked stale when the confidence changed, then the new
// confidence and support written to its row.
func updateOne(e *Engine, u ruleUpdate) bool {
	if !e.IsLive(u.Ref) {
		return false
	}
	if e.rules.Confidence(u.Ref) != u.Conf {
		if l := e.ranked[e.consequenceRegion(u.Ref).Offset].Load(); l != nil {
			l.stale = true
		}
	}
	e.rules.Set(u.Ref, u.Conf, u.Support)
	return true
}

// treeHits is every tree entry a whole-period consequence search visits, as
// (ref, the confidence of its table row) in visit order.
func treeHits(e *Engine) []rankEntry {
	var hits []rankEntry
	e.tree.SearchConsequence(wholePeriod(e), func(ref, _ int, _ bitkey.Key) bool {
		hits = append(hits, rankEntry{conf: e.rules.Confidence(ref), ref: int32(ref)})
		return true
	})
	return hits
}

// savedBytes is what a model save takes from the engine: every pattern's
// confidence and support, which refs are retired, and the tree's shape.
func savedBytes(e *Engine) []byte {
	var b []byte
	for ref, p := range e.rules.Patterns() {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Confidence))
		b = binary.AppendUvarint(b, uint64(p.Support))
		if e.dead[ref] {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return e.tree.Shape().AppendBinary(b)
}

// TestApplyMatchesOneByOne: one Apply leaves the engine the rule-by-rule
// path leaves — each removal, then each insert, then each rewrite on its
// own — in confidences as a search reads them, which ranked lists are
// marked stale and what all of them hold once re-ranked, and the bytes a
// save takes, on engines trained from all four datasets with every ranked
// list built before each step. Each delta removes some rules and re-adds
// them under new refs, and its rewrites name both the retired and the new
// refs; they also repeat refs, leave confidences unchanged, and draw them
// from a coarse grid so lists hold ties.
func TestApplyMatchesOneByOne(t *testing.T) {
	const period = 60
	for _, kind := range datagen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			_, rt, all := datasetFixture(t, kind)
			engine := func() *Engine {
				ps := slices.Clone(all)
				e, err := NewEngine(rt, pattern.TableOf(ps), Config{Period: period}, tpt.Options{}, nil)
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			batch, single := engine(), engine()
			rng := rand.New(rand.NewSource(int64(kind) + 5))
			for step := 0; step < 30; step++ {
				buildRanked(batch)
				buildRanked(single)
				var live []int
				for ref := range batch.Refs() {
					if batch.IsLive(ref) {
						live = append(live, ref)
					}
				}
				var ups []ruleUpdate
				var retired []int32
				added := pattern.NewTable(0, 0)
				for k := rng.Intn(4); k > 0; k-- {
					ref := live[rng.Intn(len(live))]
					if !single.IsLive(ref) {
						continue
					}
					retire(single, ref)
					retired = append(retired, int32(ref))
					added.Append(single.Pattern(ref))
					ups = append(ups, ruleUpdate{ref, 0.5, 1}, ruleUpdate{batch.Refs() + added.Len() - 1, float64(rng.Intn(8)) / 8, 2})
				}
				for i := range added.Len() {
					insertAll(single, added.Pattern(i))
				}
				for k := rng.Intn(len(live)); k > 0; k-- {
					ref := live[rng.Intn(len(live))]
					u := ruleUpdate{ref, float64(1+rng.Intn(8)) / 8, rng.Intn(20)}
					if rng.Intn(5) == 0 {
						u.Conf = batch.Pattern(ref).Confidence
					}
					ups = append(ups, u)
				}
				rng.Shuffle(len(ups), func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
				want := 0
				for _, u := range ups {
					if updateOne(single, u) {
						want++
					}
				}
				got := batch.Apply(retired, len(ups), func(i int) (int, float64, int) { return ups[i].Ref, ups[i].Conf, ups[i].Support }, added)
				if got != want {
					t.Fatalf("step %d: Apply applied %d of %d updates, one by one %d", step, got, len(ups), want)
				}
				for off := range batch.ranked {
					b, s := batch.ranked[off].Load(), single.ranked[off].Load()
					if (b == nil) != (s == nil) || b != nil && b.stale != s.stale {
						t.Fatalf("step %d: offset %d ranked %+v, one by one %+v", step, off, b, s)
					}
				}
				checkRanked(t, batch) // re-ranks the stale lists
				checkRanked(t, single)
				for off := range batch.ranked {
					if b, s := batch.ranked[off].Load(), single.ranked[off].Load(); !reflect.DeepEqual(b, s) {
						t.Fatalf("step %d: offset %d ranked %v, one by one %v", step, off, b, s)
					}
				}
				if b, s := treeHits(batch), treeHits(single); !reflect.DeepEqual(b, s) {
					t.Fatalf("step %d: the confidences a search reads differ from the one-by-one engine's", step)
				}
				if !bytes.Equal(savedBytes(batch), savedBytes(single)) {
					t.Fatalf("step %d: saved bytes differ", step)
				}
			}
		})
	}
}
