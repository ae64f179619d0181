package hpa

import (
	"fmt"

	"hpm/internal/bitkey"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// In-place index mutation for incremental training: Apply grows the key
// space on demand, retires the patterns delta-Apriori demotes, indexes the
// ones it promotes and rewrites the ones whose confidence or support moved.
// It mutates the engine and must be serialized against queries (see the
// Engine doc). A built ranked list is a cache of the tree: a change to what
// an offset's list would hold marks that list stale, in O(1) (an insert
// also appends its ref), and the next BQP that reads the offset re-ranks it
// from its members; nothing is sorted before then.

// LivePatterns returns how many indexed patterns are not retired.
func (e *Engine) LivePatterns() int { return e.live }

// IsLive reports whether ref names a pattern that still answers queries.
func (e *Engine) IsLive(ref int) bool {
	return ref >= 0 && ref < len(e.dead) && !e.dead[ref]
}

// Refs returns how many refs the engine has assigned, retired ones
// included: valid refs are [0, Refs()).
func (e *Engine) Refs() int { return e.rules.Len() }

// Pattern returns the rule at ref, live or retired, materialised from its
// row: its premise is a capped view of the table's arena, so nothing the
// engine appends later changes it. It panics when ref is out of range.
func (e *Engine) Pattern(ref int) pattern.Pattern { return e.rules.Pattern(ref) }

// Apply changes the rule set in one pass (§V-B). It grows the tree's key
// widths to the region and consequence tables, once: minted regions and
// fresh consequence offsets widen keys with high-order zero bits, so
// existing entries keep their meaning. It then retires the rules at
// retired, which must be live refs, each named once — their tree entries
// go in one batch delete, while their rows stay so outstanding PatternRef
// values (served predictions, Explain) remain valid — and indexes added's
// rows in order, the first under the ref Refs() returned before the call,
// each next one under the next ref. Last it
// rewrites the confidence and support of the n rules update names: an
// itemset, and so a key, does not change, so each is written to its table
// row alone, which every query reads. A ref named twice takes its last
// rewrite, and rewrites of refs that are not live are skipped. Returns how
// many rewrites it applied.
func (e *Engine) Apply(retired []int32, n int, update func(i int) (ref int, conf float64, support int), added *pattern.Table) int {
	ct := e.enc.ConsequenceTable()
	rt := e.enc.RegionTable()
	for i := range added.Len() {
		ct.AddOffset(rt.Region(added.Consequence(i)).Offset)
	}
	e.tree.GrowKeys(ct.Len(), rt.Len())
	for _, ref := range retired {
		if !e.IsLive(int(ref)) {
			panic(fmt.Sprintf("hpa: Apply retires ref %d, which is not live", ref))
		}
		e.dead[ref] = true
		e.live--
		off := e.consequenceRegion(int(ref)).Offset
		e.countLive(off, -1)
		e.staleRanked(off)
	}
	// Encode against the current tables: key widths may have grown since
	// a rule was inserted, but grown bits are zero on both sides, so the
	// encoded key equals the stored (grown) one.
	e.tree.Delete(len(retired), func(i int, ck, rk []uint64) int {
		ref := int(retired[i])
		tid, _ := ct.TimeID(e.consequenceRegion(ref).Offset)
		e.enc.EncodeRule(e.rules.Premise(ref), tid, ck, rk)
		return ref
	})
	for i := range added.Len() {
		ref := e.rules.Len()
		e.rules.Append(added.Pattern(i))
		e.dead = append(e.dead, false)
		e.live++
		off := e.consequenceRegion(ref).Offset
		e.countLive(off, 1)
		if l := e.staleRanked(off); l != nil {
			l.entries = append(l.entries, int32(ref))
		}
		var buf [keyBuf]uint64
		e.tree.Insert(tpt.Item{Key: e.keyOf(&buf, ref), Ref: ref})
	}
	applied := 0
	for i := 0; i < n; i++ {
		ref, conf, support := update(i)
		if !e.IsLive(ref) {
			continue
		}
		applied++
		if e.rules.Confidence(ref) != conf {
			e.staleRanked(e.consequenceRegion(ref).Offset)
		}
		e.rules.Set(ref, conf, support)
	}
	return applied
}

// staleRanked marks the ranked list of a consequence offset stale and
// returns it, or nil when the offset has none built: the next BQP that
// reads the offset re-ranks the list from its members.
func (e *Engine) staleRanked(off int) *rankedList {
	if off < 0 || off >= len(e.ranked) {
		return nil
	}
	l := e.ranked[off].Load()
	if l != nil {
		l.stale = true
	}
	return l
}

// keyBuf is the stack space keyOf gets for a key; wider keys spill to the
// heap.
const keyBuf = 8

// keyOf encodes the rule at ref against the current tables, in buf when
// the key fits: no key an insert encodes outlives the tree call it is
// handed to.
func (e *Engine) keyOf(buf *[keyBuf]uint64, ref int) bitkey.PatternKey {
	p := e.rules.Pattern(ref)
	ckLen, rkLen := e.enc.ConsequenceTable().Len(), e.enc.RegionTable().Len()
	cw, rw := (ckLen+63)/64, (rkLen+63)/64
	if cw+rw > keyBuf {
		return e.enc.Encode(p)
	}
	k := bitkey.PatternKey{CK: bitkey.View(ckLen, buf[:cw]), RK: bitkey.View(rkLen, buf[cw:cw+rw])}
	e.enc.EncodeInto(p, k.CK, k.RK)
	return k
}
