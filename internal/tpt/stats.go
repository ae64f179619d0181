package tpt

import "hpm/internal/bitkey"

// TreeStats summarizes the physical shape of a tree.
type TreeStats struct {
	Items        int
	Height       int
	LeafNodes    int
	InternalNode int
	Entries      int // total entries across all nodes
	StorageBytes int // the paper's charge: keys + per-entry confidence/pointers
}

// The non-key part of an entry as the paper charges it, which Figure 11(a)
// reproduces: an 8-byte pointer for an internal entry, an 8-byte confidence
// plus an 8-byte consequence pointer for a leaf entry, so key bits dominate
// as the number of frequent regions grows. It is the paper's charge, not
// this tree's layout: a leaf entry here holds a 4-byte table row and no
// confidence (Bytes counts what the slabs hold).
const (
	internalEntryOverhead = 8
	leafEntryOverhead     = 16
)

// Stats returns the tree's statistics, its storage as Figure 11(a) charges
// it. It walks nothing: every node but the root is one entry of its parent,
// and the tree keeps its node counts.
func (t *Tree) Stats() TreeStats {
	keyBytes := (t.ckLen + t.rkLen + 7) / 8
	inner := t.leaves + t.inner - 1 // entries that point at a node
	return TreeStats{
		Items:        t.size,
		Height:       t.height,
		LeafNodes:    t.leaves,
		InternalNode: t.inner,
		Entries:      t.size + inner,
		StorageBytes: t.size*(keyBytes+leafEntryOverhead) + inner*(keyBytes+internalEntryOverhead),
	}
}

// Bytes returns the capacity, in bytes, of every node's slabs: the key
// words, the leaves' references and the child pointers. It walks the tree.
func (t *Tree) Bytes() int {
	var walk func(n *node) int
	walk = func(n *node) int {
		b := 8*cap(n.keys) + 4*cap(n.refs) + 8*cap(n.kids)
		for _, child := range n.kids {
			b += walk(child)
		}
		return b
	}
	return walk(t.root)
}

// BruteForce is the unindexed baseline of Figure 11(b): a flat list of
// items scanned linearly per query.
type BruteForce struct {
	items []Item
}

// NewBruteForce returns a scanner over the given items (not copied).
func NewBruteForce(items []Item) *BruteForce { return &BruteForce{items: items} }

// SearchIntersect visits every item whose key intersects q on both parts,
// mirroring Tree.SearchIntersect. The returned count is the number of items
// examined — always the full list, which is the point of the baseline.
func (b *BruteForce) SearchIntersect(q bitkey.PatternKey, visit Visit) int {
	for i := range b.items {
		if it := &b.items[i]; it.Key.Intersects(q) && !visit(it.Ref, timeID(it.Key, q), it.Key.RK) {
			break
		}
	}
	return len(b.items)
}

// timeID is the time id Tree.search would hand a visit for a hit on k.
func timeID(k, q bitkey.PatternKey) int {
	return bitkey.SharedBitWords(k.CK.Words(), q.CK.Words())
}
