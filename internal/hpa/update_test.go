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

// updateAll hands ups to one UpdatePatterns.
func updateAll(e *Engine, ups []ruleUpdate) int {
	return e.UpdatePatterns(len(ups), func(i int) (int, float64, int) { return ups[i].Ref, ups[i].Conf, ups[i].Support })
}

// updateOne is the rule-by-rule update, kept as UpdatePatterns' oracle: the
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

// TestUpdatePatternsMatchesOneByOne: a batch update leaves the engine the
// rule-by-rule path leaves — confidences as a search reads them, which
// ranked lists are marked stale and what all of them hold once re-ranked,
// the bytes a save takes —
// on engines trained from all four datasets with every ranked list built
// before each step. Each delta removes some rules and re-adds them under new
// refs before the batch, which names both the retired and the new refs; it
// also repeats refs, leaves confidences unchanged, and draws them from a
// coarse grid so lists hold ties.
func TestUpdatePatternsMatchesOneByOne(t *testing.T) {
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
				for k := rng.Intn(4); k > 0; k-- {
					ref := live[rng.Intn(len(live))]
					if !batch.IsLive(ref) {
						continue
					}
					p := batch.Pattern(ref)
					if !batch.RemovePattern(ref) || !single.RemovePattern(ref) {
						t.Fatalf("step %d: RemovePattern(%d) failed", step, ref)
					}
					added := batch.InsertPatterns([]pattern.Pattern{p})
					single.InsertPatterns([]pattern.Pattern{p})
					ups = append(ups, ruleUpdate{ref, 0.5, 1}, ruleUpdate{added[0], float64(rng.Intn(8)) / 8, 2})
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
				if got := updateAll(batch, ups); got != want {
					t.Fatalf("step %d: UpdatePatterns applied %d of %d updates, one by one %d", step, got, len(ups), want)
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
