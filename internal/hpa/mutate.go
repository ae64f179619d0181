package hpa

import (
	"cmp"
	"slices"

	"hpm/internal/bitkey"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
)

// In-place index mutation for incremental training. Unlike AddPatterns —
// the paper's fixed-table insertion, which skips patterns its key space
// cannot express — these methods grow the key space on demand and retire
// patterns delta-Apriori demotes. All of them mutate the engine and must
// be serialized against queries like AddPatterns (see the Engine doc).

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

// InsertPatterns indexes newly promoted patterns, growing the consequence
// table and the tree's key widths as needed — nothing is skipped, unlike
// AddPatterns. Minted regions and fresh consequence offsets widen keys
// with high-order zero bits, so existing entries keep their meaning.
// Returns the refs assigned, aligned with ps.
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
		e.rankInsert(off, p.Confidence, ref)
		var buf [keyBuf]uint64
		e.tree.Insert(tpt.Item{Key: e.keyOf(&buf, ref), Conf: p.Confidence, Ref: ref})
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
	if l := e.builtList(off); l != nil {
		i := l.find(e.rules.Confidence(ref), ref)
		l.entries = slices.Delete(l.entries, i, i+1)
	}
	return true
}

// UpdatePatterns rewrites the confidence and support of n live patterns,
// the ith of which rule names; an itemset, and therefore a key, does not
// change, only the payload moves. Each confidence is written where its tree leaf holds it, through the
// tree's locator. Every built ranked list an update touched is then fixed
// once: the changed refs are filtered out, sorted, and merged back. A list
// orders by (confidence desc, ref asc), a strict total order, so the result
// is the list a rule-by-rule move would leave. A ref named twice takes its
// last update. Updates of refs that are not live are skipped; it returns
// how many were applied.
func (e *Engine) UpdatePatterns(n int, rule func(i int) (ref int, conf float64, support int)) int {
	applied := 0
	var moved []movedRef
	if w := (e.rules.Len() + 63) / 64; len(e.marks) < w {
		e.marks = append(e.marks, make([]uint64, w-len(e.marks))...)
	}
	for i := 0; i < n; i++ {
		ref, conf, support := rule(i)
		if !e.IsLive(ref) || !e.tree.UpdateConf(ref, conf) {
			continue
		}
		applied++
		if e.rules.Confidence(ref) != conf {
			off := e.consequenceRegion(ref).Offset
			if e.builtList(off) != nil && !e.marked(ref) {
				e.mark(ref, true)
				moved = append(moved, movedRef{off: int32(off), rankEntry: rankEntry{ref: int32(ref)}})
			}
		}
		e.rules.Set(ref, conf, support)
	}
	if len(moved) > 0 {
		for i := range moved {
			moved[i].conf = e.rules.Confidence(int(moved[i].ref))
		}
		slices.SortFunc(moved, func(a, b movedRef) int {
			if a.off != b.off {
				return cmp.Compare(a.off, b.off)
			}
			if a.rankEntry.before(b.rankEntry) {
				return -1
			}
			return 1 // refs are distinct
		})
		for lo := 0; lo < len(moved); {
			hi := lo + 1
			for hi < len(moved) && moved[hi].off == moved[lo].off {
				hi++
			}
			e.builtList(int(moved[lo].off)).merge(moved[lo:hi], e.marks)
			lo = hi
		}
		for _, m := range moved {
			e.mark(int(m.ref), false)
		}
	}
	return applied
}

// movedRef is one ref a batch update moved within its offset's ranked list,
// with its new confidence.
type movedRef struct {
	off int32
	rankEntry
}

// marked reports whether ref's bit is set in the engine's update marks.
func (e *Engine) marked(ref int) bool { return e.marks[ref>>6]&(1<<(ref&63)) != 0 }

// mark sets or clears ref's bit in the engine's update marks.
func (e *Engine) mark(ref int, on bool) {
	if on {
		e.marks[ref>>6] |= 1 << (ref & 63)
	} else {
		e.marks[ref>>6] &^= 1 << (ref & 63)
	}
}

// merge replaces the list's entries for the refs marked in marks with
// moved, which holds exactly those refs at their new confidences, in list
// order. The unmarked entries keep their order; a merge from the back puts
// the two runs together in place.
func (l *rankedList) merge(moved []movedRef, marks []uint64) {
	es := l.entries
	kept := 0
	for _, r := range es {
		if marks[r.ref>>6]&(1<<(r.ref&63)) == 0 {
			es[kept] = r
			kept++
		}
	}
	i, j := kept-1, len(moved)-1
	for w := len(es) - 1; j >= 0; w-- {
		if i >= 0 && moved[j].before(es[i]) {
			es[w] = es[i]
			i--
		} else {
			es[w] = moved[j].rankEntry
			j--
		}
	}
}

// builtList returns the ranked list of a consequence offset, or nil when no
// query has built it yet — a mutator then has nothing to keep in step.
func (e *Engine) builtList(off int) *rankedList {
	if off < 0 || off >= len(e.ranked) {
		return nil
	}
	return e.ranked[off].Load()
}

// rankInsert adds a new live pattern to its offset's ranked list, if built.
func (e *Engine) rankInsert(off int, conf float64, ref int) {
	if l := e.builtList(off); l != nil {
		r := rankEntry{conf: conf, ref: int32(ref)}
		l.entries = slices.Insert(l.entries, l.search(r), r)
	}
}

// search returns the position of the first entry that does not rank ahead
// of r: r's own position when the list holds it, its insertion point when
// not. The comparison is inlined rather than called per step.
func (l *rankedList) search(r rankEntry) int {
	lo, hi := 0, len(l.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if l.entries[m].before(r) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the position of the live pattern (conf, ref) in the list.
func (l *rankedList) find(conf float64, ref int) int {
	r := rankEntry{conf: conf, ref: int32(ref)}
	i := l.search(r)
	if i == len(l.entries) || l.entries[i] != r {
		panic("hpa: live pattern missing from its ranked list")
	}
	return i
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
