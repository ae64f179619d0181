package tpt

import "hpm/internal/bitkey"

// TreeStats summarizes the physical shape of a tree.
type TreeStats struct {
	Items        int
	Height       int
	LeafNodes    int
	InternalNode int
	Entries      int // total entries across all nodes
	StorageBytes int // packed size: keys + per-entry payload/pointers
}

// entryOverheadBytes approximates the non-key payload of an entry: an
// 8-byte pointer for internal entries, an 8-byte confidence plus an 8-byte
// consequence pointer for leaf entries. Figure 11(a) charges TPT storage
// this way: key bits dominate as the number of frequent regions grows.
const (
	internalEntryOverhead = 8
	leafEntryOverhead     = 16
)

// Stats walks the tree and returns its physical statistics.
func (t *Tree) Stats() TreeStats {
	s := TreeStats{Items: t.size, Height: t.height}
	keyBytes := (t.ckLen + t.rkLen + 7) / 8
	var rec func(n *node)
	rec = func(n *node) {
		s.Entries += n.len()
		if n.leaf {
			s.LeafNodes++
			s.StorageBytes += n.len() * (keyBytes + leafEntryOverhead)
			return
		}
		s.InternalNode++
		s.StorageBytes += n.len() * (keyBytes + internalEntryOverhead)
		for _, child := range n.kids {
			rec(child)
		}
	}
	rec(t.root)
	return s
}

// BruteForce is the unindexed baseline of Figure 11(b): a flat list of
// items scanned linearly per query.
type BruteForce struct {
	items []Item
}

// NewBruteForce returns a scanner over the given items (not copied).
func NewBruteForce(items []Item) *BruteForce { return &BruteForce{items: items} }

// Len returns the number of stored items.
func (b *BruteForce) Len() int { return len(b.items) }

// SearchIntersect visits every item whose key intersects q on both parts,
// mirroring Tree.SearchIntersect. The returned count is the number of items
// examined — always the full list, which is the point of the baseline.
func (b *BruteForce) SearchIntersect(q bitkey.PatternKey, visit Visit) int {
	for i := range b.items {
		if it := &b.items[i]; it.Key.Intersects(q) && !visit(it.Ref, timeID(it.Key, q), it.Conf, it.Key.RK) {
			break
		}
	}
	return len(b.items)
}

// SearchConsequence visits every item whose consequence key intersects q's,
// mirroring Tree.SearchConsequence.
func (b *BruteForce) SearchConsequence(q bitkey.PatternKey, visit Visit) int {
	for i := range b.items {
		if it := &b.items[i]; it.Key.IntersectsConsequence(q) && !visit(it.Ref, timeID(it.Key, q), it.Conf, it.Key.RK) {
			break
		}
	}
	return len(b.items)
}

// timeID is the time id Tree.search would hand a visit for a hit on k.
func timeID(k, q bitkey.PatternKey) int {
	return bitkey.SharedBitWords(k.CK.Words(), q.CK.Words())
}
