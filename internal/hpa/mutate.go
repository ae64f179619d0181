package hpa

import (
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
	return ref >= 0 && ref < len(e.patterns) && !e.dead[ref]
}

// Refs returns how many refs the engine has assigned, retired ones
// included: valid refs are [0, Refs()).
func (e *Engine) Refs() int { return len(e.patterns) }

// Pattern returns the pattern at ref, live or retired, without copying the
// slice the way Patterns does. It panics when ref is out of range.
func (e *Engine) Pattern(ref int) pattern.Pattern { return e.patterns[ref] }

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
		ref := len(e.patterns)
		off := rt.Region(p.Consequence).Offset
		e.patterns = append(e.patterns, p)
		e.dead = append(e.dead, false)
		e.live++
		e.countLive(off, 1)
		var buf [keyBuf]uint64
		e.tree.Insert(tpt.Item{Key: e.keyOf(&buf, p), Conf: p.Confidence, Ref: ref})
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
	if !e.tree.Delete(e.keyOf(&buf, e.patterns[ref]), ref) {
		return false
	}
	e.dead[ref] = true
	e.live--
	e.countLive(e.consequenceRegion(ref).Offset, -1)
	return true
}

// UpdatePattern rewrites the confidence and support of the live pattern
// at ref; its itemset — and therefore its key, encoded here from the
// pattern the engine already stores — does not change, only the payload
// moves. Returns false when ref is not live.
func (e *Engine) UpdatePattern(ref int, conf float64, support int) bool {
	if !e.IsLive(ref) {
		return false
	}
	p := &e.patterns[ref]
	var buf [keyBuf]uint64
	if !e.tree.UpdateConf(e.keyOf(&buf, *p), ref, conf) {
		return false
	}
	p.Confidence, p.Support = conf, support
	return true
}

// keyBuf is the stack space keyOf gets for a key; wider keys spill to the
// heap.
const keyBuf = 8

// keyOf encodes p against the current tables, in buf when the key fits: an
// incremental update re-encodes every rule it touches, and none of those
// keys outlives the tree call it is handed to.
func (e *Engine) keyOf(buf *[keyBuf]uint64, p pattern.Pattern) bitkey.PatternKey {
	ckLen, rkLen := e.enc.ConsequenceTable().Len(), e.enc.RegionTable().Len()
	cw, rw := (ckLen+63)/64, (rkLen+63)/64
	if cw+rw > keyBuf {
		return e.enc.Encode(p)
	}
	k := bitkey.PatternKey{CK: bitkey.View(ckLen, buf[:cw]), RK: bitkey.View(rkLen, buf[cw:cw+rw])}
	e.enc.EncodeInto(p, k.CK, k.RK)
	return k
}
