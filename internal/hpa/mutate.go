package hpa

import (
	"hpm/internal/bitkey"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// In-place index mutation for incremental training: these methods grow the
// key space on demand and retire patterns delta-Apriori demotes. All of
// them mutate the engine and must be serialized against queries (see the
// Engine doc). A built ranked list is a cache of the tree: a mutator that
// changes what an offset's list would hold marks that list stale, in O(1)
// (an insert also appends its ref), and the next BQP that reads the offset
// re-ranks it from its members; nothing is sorted before then.

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

// InsertPatterns indexes newly promoted patterns (§V-B), growing the
// consequence table and the tree's key widths as needed. Minted regions and
// fresh consequence offsets widen keys with high-order zero bits, so
// existing entries keep their meaning. Returns the refs assigned, aligned
// with ps.
func (e *Engine) InsertPatterns(ps []pattern.Pattern) []int {
	if len(ps) == 0 {
		return nil
	}
	ct := e.enc.ConsequenceTable()
	rt := e.enc.RegionTable()
	for _, p := range ps {
		ct.AddOffset(rt.Region(p.Consequence).Offset)
	}
	e.tree.GrowKeys(ct.Len(), rt.Len())
	refs := make([]int, len(ps))
	for i, p := range ps {
		ref := e.rules.Len()
		off := rt.Region(p.Consequence).Offset
		e.rules.Append(p)
		e.dead = append(e.dead, false)
		e.live++
		e.countLive(off, 1)
		if l := e.staleRanked(off); l != nil {
			l.entries = append(l.entries, int32(ref))
		}
		var buf [keyBuf]uint64
		e.tree.Insert(tpt.Item{Key: e.keyOf(&buf, ref), Ref: ref})
		refs[i] = ref
	}
	return refs
}

// SyncKeyWidths grows the tree's key widths to match the current region
// and consequence tables. InsertPatterns does this on its own; call it
// directly when a region is minted without any pattern promotion, so the
// wider query keys the encoder now produces still match the tree.
func (e *Engine) SyncKeyWidths() {
	e.tree.GrowKeys(e.enc.ConsequenceTable().Len(), e.enc.RegionTable().Len())
}

// RemovePattern retires the pattern at ref: its tree entry is deleted so
// no query finds it again, while the slice entry stays so outstanding
// PatternRef values (served predictions, Explain) remain valid. Returns
// false when ref is out of range or already retired.
func (e *Engine) RemovePattern(ref int) bool {
	if !e.IsLive(ref) {
		return false
	}
	// Encode against the current tables: key widths may have grown since
	// the pattern was inserted, but grown bits are zero on both sides, so
	// the encoded key equals the stored (grown) one.
	var buf [keyBuf]uint64
	if !e.tree.Delete(e.keyOf(&buf, ref), ref) {
		return false
	}
	e.dead[ref] = true
	e.live--
	off := e.consequenceRegion(ref).Offset
	e.countLive(off, -1)
	e.staleRanked(off)
	return true
}

// UpdatePatterns rewrites the confidence and support of n live patterns,
// the ith of which rule names; an itemset, and therefore a key, does not
// change, so the tree does not either: each is written to its table row
// alone, which every query reads, and a rule whose confidence changes marks
// its offset's ranked list stale. A ref named twice takes its last update.
// Updates of refs that are not live are skipped; it returns how many were
// applied.
func (e *Engine) UpdatePatterns(n int, rule func(i int) (ref int, conf float64, support int)) int {
	applied := 0
	for i := 0; i < n; i++ {
		ref, conf, support := rule(i)
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
// the key fits: none of the keys an insert or a removal encodes outlives
// the tree call it is handed to.
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
