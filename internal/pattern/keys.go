package pattern

import (
	"fmt"
	"sort"

	"hpm/internal/bitkey"
)

// ConsequenceTable is the consequence-key table of §V-A: the distinct time
// offsets appearing as pattern consequences, sorted, each assigned a dense
// time id. The consequence key of a pattern is the bit 2^timeID, so the
// consequence-key length equals the number of distinct consequence offsets
// — always at most the region-key length.
type ConsequenceTable struct {
	offsets []int       // sorted distinct consequence offsets
	ids     map[int]int // offset -> time id
}

// NewConsequenceTable builds the table from the consequences of the mined
// patterns.
func NewConsequenceTable(rt *RegionTable, patterns []Pattern) *ConsequenceTable {
	seen := map[int]bool{}
	for _, p := range patterns {
		seen[rt.Region(p.Consequence).Offset] = true
	}
	ct := &ConsequenceTable{ids: make(map[int]int, len(seen))}
	for off := range seen {
		ct.offsets = append(ct.offsets, off)
	}
	sort.Ints(ct.offsets)
	for id, off := range ct.offsets {
		ct.ids[off] = id
	}
	return ct
}

// Len returns the consequence-key length in bits.
func (ct *ConsequenceTable) Len() int { return len(ct.offsets) }

// TimeID returns the time id of a consequence offset; ok is false when no
// pattern's consequence has that offset.
func (ct *ConsequenceTable) TimeID(offset int) (id int, ok bool) {
	id, ok = ct.ids[offset]
	return id, ok
}

// Offsets returns the distinct consequence offsets in time-id order.
// NewConsequenceTable emits them sorted; AddOffset appends, so tables that
// grew dynamically are no longer sorted. Callers must not mutate the
// slice.
func (ct *ConsequenceTable) Offsets() []int { return ct.offsets }

// AddOffset ensures offset has a time id, appending a fresh one when
// absent — incremental mining can promote rules whose consequence offset
// no initial pattern reached. Appending keeps existing ids (and therefore
// existing consequence keys) stable at the cost of the sorted-offsets
// invariant, which only KeyRange relied on.
func (ct *ConsequenceTable) AddOffset(offset int) int {
	if id, ok := ct.ids[offset]; ok {
		return id
	}
	id := len(ct.offsets)
	ct.offsets = append(ct.offsets, offset)
	ct.ids[offset] = id
	return id
}

// Key returns a consequence key with the bits of all the given offsets that
// exist in the table. Offsets absent from the table are ignored, which is
// what Backward Query Processing needs when it widens its time window over
// offsets no pattern predicts.
func (ct *ConsequenceTable) Key(offsets ...int) bitkey.Key {
	k := bitkey.New(len(ct.offsets))
	for _, off := range offsets {
		if id, ok := ct.ids[off]; ok {
			k.Set(id + 1)
		}
	}
	return k
}

// KeyRange returns a consequence key with every table offset in [lo, hi]
// set. BQP's window [tq - i*tε, tq + i*tε] maps to exactly this call. The
// scan is linear: AddOffset appends out of order, and the table never
// exceeds one entry per period offset.
func (ct *ConsequenceTable) KeyRange(lo, hi int) bitkey.Key {
	k := bitkey.New(len(ct.offsets))
	for i, off := range ct.offsets {
		if off >= lo && off <= hi {
			k.Set(i + 1)
		}
	}
	return k
}

// Encoder turns trajectory patterns and predictive queries into the pattern
// keys the TPT indexes.
type Encoder struct {
	rt *RegionTable
	ct *ConsequenceTable
}

// NewEncoder returns an encoder over the given key tables.
func NewEncoder(rt *RegionTable, ct *ConsequenceTable) *Encoder {
	return &Encoder{rt: rt, ct: ct}
}

// RegionTable returns the region-key table the encoder was built over.
func (e *Encoder) RegionTable() *RegionTable { return e.rt }

// ConsequenceTable returns the consequence-key table.
func (e *Encoder) ConsequenceTable() *ConsequenceTable { return e.ct }

// Encode returns the pattern key of a mined pattern: the consequence key of
// its consequence offset placed before the OR of its premise region keys.
func (e *Encoder) Encode(p Pattern) bitkey.PatternKey {
	k := bitkey.NewPatternKey(e.ct.Len(), e.rt.Len())
	e.EncodeInto(p, k.CK, k.RK)
	return k
}

// EncodeInto sets p's pattern key in ck and rk, which must be all-zero keys
// of the tables' current lengths. A bulk load encodes straight into the
// index's own storage with it instead of allocating two keys per pattern.
func (e *Encoder) EncodeInto(p Pattern, ck, rk bitkey.Key) {
	off := e.rt.Region(p.Consequence).Offset
	id, ok := e.ct.TimeID(off)
	if !ok {
		panic(fmt.Sprintf("pattern: consequence offset %d missing from table", off))
	}
	ck.Set(id + 1)
	e.rt.setRegions(rk, p.Premise)
}

// QueryKey encodes a predictive query: the frequent regions the object
// visited recently (its premise) and the consequence offsets of interest —
// a single offset for FQP, a window for BQP.
func (e *Encoder) QueryKey(visited []RegionID, consequenceOffsets ...int) bitkey.PatternKey {
	return bitkey.PatternKey{
		CK: e.ct.Key(consequenceOffsets...),
		RK: e.rt.PremiseKey(visited),
	}
}
