package pattern

import (
	"fmt"

	"hpm/internal/bitkey"
)

// ConsequenceTable is the consequence-key table of §V-A: the distinct time
// offsets appearing as pattern consequences, sorted, each assigned a dense
// time id. The consequence key of a pattern is the bit 2^timeID, so the
// consequence-key length equals the number of distinct consequence offsets
// — always at most the region-key length.
type ConsequenceTable struct {
	offsets []int   // sorted distinct consequence offsets
	ids     []int32 // offset -> time id + 1; 0 where no consequence lies
}

// NewConsequenceTable builds the table from the consequences of the mined
// patterns.
func NewConsequenceTable(rt *RegionTable, patterns []Pattern) *ConsequenceTable {
	offs := make([]int32, len(patterns))
	for i, p := range patterns {
		offs[i] = int32(rt.Region(p.Consequence).Offset)
	}
	return ConsequenceTableOf(offs)
}

// ConsequenceTableOf builds the table from every rule's consequence offset,
// each a region's: within the period, so the table is as long as the
// period at most.
func ConsequenceTableOf(offs []int32) *ConsequenceTable {
	top := int32(-1)
	for _, off := range offs {
		top = max(top, off)
	}
	ct := &ConsequenceTable{ids: make([]int32, top+1)}
	for _, off := range offs {
		ct.ids[off] = 1
	}
	for off, seen := range ct.ids {
		if seen != 0 {
			ct.offsets = append(ct.offsets, off)
			ct.ids[off] = int32(len(ct.offsets))
		}
	}
	return ct
}

// Len returns the consequence-key length in bits.
func (ct *ConsequenceTable) Len() int { return len(ct.offsets) }

// TimeID returns the time id of a consequence offset; ok is false when no
// pattern's consequence has that offset.
func (ct *ConsequenceTable) TimeID(offset int) (id int, ok bool) {
	if offset < 0 || offset >= len(ct.ids) || ct.ids[offset] == 0 {
		return 0, false
	}
	return int(ct.ids[offset]) - 1, true
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
	if id, ok := ct.TimeID(offset); ok {
		return id
	}
	if offset >= len(ct.ids) {
		ct.ids = append(ct.ids, make([]int32, offset+1-len(ct.ids))...)
	}
	ct.offsets = append(ct.offsets, offset)
	ct.ids[offset] = int32(len(ct.offsets))
	return len(ct.offsets) - 1
}

// Key returns a consequence key with the bits of all the given offsets that
// exist in the table. Offsets absent from the table are ignored, which is
// what Backward Query Processing needs when it widens its time window over
// offsets no pattern predicts.
func (ct *ConsequenceTable) Key(offsets ...int) bitkey.Key {
	k := bitkey.New(len(ct.offsets))
	for _, off := range offsets {
		if id, ok := ct.TimeID(off); ok {
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
	e.EncodeRule(p.Premise, id, ck.Words(), rk.Words())
}

// EncodeRule is EncodeInto for a rule whose consequence's time id the
// caller has in hand, into the words of the keys: a tree's bulk load hands
// it each leaf key's own storage.
func (e *Encoder) EncodeRule(premise []RegionID, tid int, ck, rk []uint64) {
	bitkey.SetWords(ck, tid+1)
	for _, id := range premise {
		if uint(id) >= uint(len(e.rt.regions)) {
			panic(fmt.Sprintf("pattern: region id %d out of %d", id, len(e.rt.regions)))
		}
		bitkey.SetWords(rk, int(id)+1)
	}
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
