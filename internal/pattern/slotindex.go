package pattern

import "slices"

// slotIndex finds a miner slot by its itemset without holding a copy of
// it: the id arena has the itemset already. An entry is a slot number and
// a 32-bit fingerprint of the itemset's hash, so a probe reads only 8-byte
// entries, and reads the arena only where a fingerprint matches — almost
// always at the itemset sought. An itemset is hashed and compared as the
// arena stores it, in ascending time offset: one region per offset makes
// that order canonical, and it is the order every chain enumerates in.
// Linear probing over a table at most 3/4 full; a removal shifts the run
// behind it back instead of leaving a tombstone, so a miss always ends at
// the first free entry. An entry's home is derived from its fingerprint
// alone, so growing and shifting never read the arena either (DESIGN.md,
// "What one miner costs").
type slotIndex struct {
	entries []indexEntry // fp 0 marks a free entry
	live    int
}

type indexEntry struct {
	fp   uint32 // the identity's fingerprint, never 0
	slot int32
}

// newSlotIndex returns an index with room for n slots before it grows.
func newSlotIndex(n int) slotIndex {
	return slotIndex{entries: make([]indexEntry, max(8, n+n/3+1))}
}

// fingerprint hashes an itemset, ascending time offset, to a non-zero
// 32-bit fingerprint.
func fingerprint(ids []RegionID) uint32 {
	h := uint64(0xcbf29ce484222325) // no region id cancels it
	for _, id := range ids {
		h = (h ^ uint64(uint32(id))) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	h *= 0xbf58476d1ce4e5b9
	fp := uint32(h >> 32)
	if fp == 0 {
		fp = 1
	}
	return fp
}

// home is the entry a fingerprint's probe starts at.
func (x *slotIndex) home(fp uint32) int {
	return int(uint64(fp) * uint64(len(x.entries)) >> 32)
}

// next is the entry after i, wrapping at the table's end.
func (x *slotIndex) next(i int) int {
	if i++; i == len(x.entries) {
		return 0
	}
	return i
}

// insert adds slot s under fingerprint fp; its itemset must not be in
// the index already.
func (x *slotIndex) insert(fp uint32, s int32) {
	if (x.live+1)*4 > len(x.entries)*3 {
		old := x.entries
		x.entries = make([]indexEntry, 2*len(old))
		for _, e := range old {
			if e.fp != 0 {
				x.place(e)
			}
		}
	}
	x.place(indexEntry{fp, s})
	x.live++
}

// place puts e in the first free entry from its home.
func (x *slotIndex) place(e indexEntry) {
	i := x.home(e.fp)
	for x.entries[i].fp != 0 {
		i = x.next(i)
	}
	x.entries[i] = e
}

// remove drops slot s, indexed under fingerprint fp, and closes the gap:
// each later entry of the run moves back into the hole when the hole is
// on its probe path, no nearer to it than its home is.
func (x *slotIndex) remove(fp uint32, s int32) {
	i, n := x.home(fp), len(x.entries)
	for x.entries[i] != (indexEntry{fp, s}) {
		i = x.next(i)
	}
	for j := x.next(i); x.entries[j].fp != 0; j = x.next(j) {
		if (j-x.home(x.entries[j].fp)+n)%n >= (j-i+n)%n {
			x.entries[i] = x.entries[j]
			i = j
		}
	}
	x.entries[i] = indexEntry{}
	x.live--
}

// lookup returns the slot of an itemset, ids in ascending time offset.
func (m *IncrementalMiner) lookup(ids []RegionID) (int32, bool) {
	fp := fingerprint(ids)
	x := &m.index
	for i := x.home(fp); ; i = x.next(i) {
		e := x.entries[i]
		if e.fp == 0 {
			return noSlot, false
		}
		if e.fp == fp && slices.Equal(m.idsOf(e.slot), ids) {
			return e.slot, true
		}
	}
}
