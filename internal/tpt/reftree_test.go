package tpt

import (
	"cmp"
	"fmt"
	"slices"

	"hpm/internal/bitkey"
)

// refTree is the Trajectory Pattern Tree as it stood before entries moved
// into per-node word slabs: one pointerful 152-byte entry per key, a full
// Item copy in every leaf entry, and a bulk load that sorts a copy of the
// items. It is a reference implementation, not a second production path —
// the equivalence tests build it beside Tree from the same inputs and demand
// the same shape, the same All() sequence and the same search visit order
// after every step, which is what pins "the layout changed, nothing else
// did".

type refEntry struct {
	key   bitkey.PatternKey
	child *refNode // internal nodes only
	item  Item     // leaf nodes only (item.Key aliases key)
}

type refNode struct {
	leaf    bool
	entries []refEntry
}

type refTree struct {
	root         *refNode
	ckLen, rkLen int
	maxEntries   int
	minEntries   int
	size         int
	height       int
	noIntersect  bool
}

// newRefTree returns an empty tree for pattern keys with ckLen consequence bits
// and rkLen premise bits.
func newRefTree(ckLen, rkLen int, opts Options) *refTree {
	m := opts.MaxEntries
	if m <= 0 {
		m = DefaultMaxEntries
	}
	if m < 4 {
		m = 4
	}
	min := 2 * m / 5
	if min < 2 {
		min = 2
	}
	return &refTree{
		root:        &refNode{leaf: true},
		ckLen:       ckLen,
		rkLen:       rkLen,
		maxEntries:  m,
		minEntries:  min,
		height:      1,
		noIntersect: opts.DisableIntersectStep,
	}
}

// Len returns the number of indexed items.
func (t *refTree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *refTree) Height() int { return t.height }

// Insert adds an item to the tree. It panics when the item's key lengths do
// not match the tree's.
func (t *refTree) Insert(it Item) {
	t.checkKey(it.Key)
	split := t.insert(t.root, it)
	if split != nil {
		// Root overflow: grow a new root above both halves.
		old := t.root
		t.root = &refNode{leaf: false, entries: []refEntry{
			{key: refUnionOf(old), child: old},
			{key: refUnionOf(split), child: split},
		}}
		t.height++
	}
	t.size++
}

func (t *refTree) checkKey(k bitkey.PatternKey) {
	if k.CK.Len() != t.ckLen || k.RK.Len() != t.rkLen {
		panic(fmt.Sprintf("tpt: key lengths (%d,%d) do not match tree (%d,%d)",
			k.CK.Len(), k.RK.Len(), t.ckLen, t.rkLen))
	}
}

// insert recursively places it under n and returns a non-nil refNode when n
// was split and the caller must register the new sibling.
func (t *refTree) insert(n *refNode, it Item) *refNode {
	if n.leaf {
		n.entries = append(n.entries, refEntry{key: it.Key, item: it})
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	i := t.chooseSubtree(n, it.Key)
	n.entries[i].key = keyUnion(n.entries[i].key, it.Key)
	if split := t.insert(n.entries[i].child, it); split != nil {
		n.entries[i].key = refUnionOf(n.entries[i].child)
		n.entries = append(n.entries, refEntry{key: refUnionOf(split), child: split})
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
	}
	return nil
}

// chooseSubtree implements Algorithm 1 (ChooseLeaf) for one level: prefer
// the smallest containing refEntry, then — unless disabled — the
// intersecting refEntry with the smallest difference, then the smallest
// difference overall. Ties resolve to the smallest refEntry size.
func (t *refTree) chooseSubtree(n *refNode, pk bitkey.PatternKey) int {
	best := -1
	bestSize := 0
	// Rule 1: containment.
	for i, e := range n.entries {
		if keyContains(e.key, pk) {
			if s := keySize(e.key); best < 0 || s < bestSize {
				best, bestSize = i, s
			}
		}
	}
	if best >= 0 {
		return best
	}
	// Rule 2: intersection on both parts (the paper's addition).
	if !t.noIntersect {
		bestDiff := 0
		for i, e := range n.entries {
			if e.key.Intersects(pk) {
				d, s := keyDifference(pk, e.key), keySize(e.key)
				if best < 0 || d < bestDiff || (d == bestDiff && s < bestSize) {
					best, bestDiff, bestSize = i, d, s
				}
			}
		}
		if best >= 0 {
			return best
		}
	}
	// Rule 3: smallest difference.
	bestDiff := 0
	for i, e := range n.entries {
		d, s := keyDifference(pk, e.key), keySize(e.key)
		if best < 0 || d < bestDiff || (d == bestDiff && s < bestSize) {
			best, bestDiff, bestSize = i, d, s
		}
	}
	return best
}

// split divides an overflowing refNode in two, quadratic-seed style: the two
// entries with the largest symmetric key difference seed the groups, and
// each remaining refEntry joins the group whose union key grows least.
func (t *refTree) split(n *refNode) *refNode {
	entries := n.entries
	// Seed selection.
	s1, s2 := 0, 1
	worst := -1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := keyDifference(entries[i].key, entries[j].key) + keyDifference(entries[j].key, entries[i].key)
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []refEntry{entries[s1]}
	g2 := []refEntry{entries[s2]}
	u1 := keyClone(entries[s1].key)
	u2 := keyClone(entries[s2].key)

	rest := make([]refEntry, 0, len(entries)-2)
	for i, e := range entries {
		if i != s1 && i != s2 {
			rest = append(rest, e)
		}
	}
	for idx, e := range rest {
		remaining := len(rest) - idx
		// Honour the minimum fill: hand the remainder to a starving group.
		if len(g1)+remaining <= t.minEntries {
			g1 = append(g1, e)
			keyUnionInPlace(u1, e.key)
			continue
		}
		if len(g2)+remaining <= t.minEntries {
			g2 = append(g2, e)
			keyUnionInPlace(u2, e.key)
			continue
		}
		grow1 := keyDifference(e.key, u1)
		grow2 := keyDifference(e.key, u2)
		if grow1 < grow2 || (grow1 == grow2 && keySize(u1) <= keySize(u2)) {
			g1 = append(g1, e)
			keyUnionInPlace(u1, e.key)
		} else {
			g2 = append(g2, e)
			keyUnionInPlace(u2, e.key)
		}
	}
	n.entries = g1
	return &refNode{leaf: n.leaf, entries: g2}
}

// refUnionOf returns the OR of all refEntry keys of n.
func refUnionOf(n *refNode) bitkey.PatternKey {
	u := keyClone(n.entries[0].key)
	for _, e := range n.entries[1:] {
		keyUnionInPlace(u, e.key)
	}
	return u
}

// SearchIntersect visits every item whose key intersects q on both the
// consequence and the premise part (the FQP retrieval predicate). The visit
// callback returns false to stop early. It reports the number of tree nodes
// touched, the cost metric of Figure 11(b).
func (t *refTree) SearchIntersect(q bitkey.PatternKey, visit func(Item) bool) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, &q, true, visit)
	return nodes
}

// SearchConsequence visits every item whose consequence key intersects q's,
// ignoring premises entirely — the relaxed predicate of Backward Query
// Processing.
func (t *refTree) SearchConsequence(q bitkey.PatternKey, visit func(Item) bool) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, &q, false, visit)
	return nodes
}

// search is the one descent both predicates share: an entry qualifies when
// its consequence part intersects q's and, with premise set, its premise
// part does too. Entries are tested in place — an entry is 152 bytes and
// most fail the test, so the walk copies nothing until an item is visited.
func (t *refTree) search(n *refNode, q *bitkey.PatternKey, premise bool, visit func(Item) bool) (nodes int, stopped bool) {
	nodes = 1
	for i := range n.entries {
		e := &n.entries[i]
		if !e.key.CK.Intersects(q.CK) || (premise && !e.key.RK.Intersects(q.RK)) {
			continue
		}
		if n.leaf {
			if !visit(e.item) {
				return nodes, true
			}
			continue
		}
		sub, stop := t.search(e.child, q, premise, visit)
		nodes += sub
		if stop {
			return nodes, true
		}
	}
	return nodes, false
}

// All visits every indexed item in key order of the leaves.
func (t *refTree) All(visit func(Item) bool) {
	var rec func(n *refNode) bool
	rec = func(n *refNode) bool {
		for _, e := range n.entries {
			if n.leaf {
				if !visit(e.item) {
					return false
				}
			} else if !rec(e.child) {
				return false
			}
		}
		return true
	}
	rec(t.root)
}

// refBulkLoad builds a tree from items bottom-up: items are sorted so patterns
// with the same consequence time offset pack into the same leaves, leaves
// are filled to capacity, and parent levels are built from the unions. This
// is the paper's bulk loading for the static (historical) pattern set;
// dynamic arrivals then use Insert.
func refBulkLoad(ckLen, rkLen int, items []Item, opts Options) *refTree {
	t := newRefTree(ckLen, rkLen, opts)
	if len(items) == 0 {
		return t
	}
	sorted := make([]Item, len(items))
	copy(sorted, items)
	slices.SortFunc(sorted, refItemCmp)
	for _, it := range sorted {
		t.checkKey(it.Key)
	}
	// Leaf level. packCounts keeps every refNode (beyond a lone root) at or
	// above the minimum fill so later Inserts preserve the invariants.
	var level []*refNode
	rest := sorted
	for _, c := range packCounts(len(sorted), t.maxEntries, t.minEntries) {
		n := &refNode{leaf: true}
		for _, it := range rest[:c] {
			n.entries = append(n.entries, refEntry{key: it.Key, item: it})
		}
		rest = rest[c:]
		level = append(level, n)
	}
	height := 1
	for len(level) > 1 {
		var up []*refNode
		for _, c := range packCounts(len(level), t.maxEntries, t.minEntries) {
			n := &refNode{leaf: false}
			for _, child := range level[:c] {
				n.entries = append(n.entries, refEntry{key: refUnionOf(child), child: child})
			}
			level = level[c:]
			up = append(up, n)
		}
		level = up
		height++
	}
	t.root = level[0]
	t.height = height
	t.size = len(sorted)
	return t
}

// refCompareKeys orders pattern keys by consequence part then premise part,
// most significant bits first, so bulk loading clusters same-consequence
// patterns together.
func refCompareKeys(a, b bitkey.PatternKey) int {
	if c := compareWords(a.CK.Words(), b.CK.Words()); c != 0 {
		return c
	}
	return compareWords(a.RK.Words(), b.RK.Words())
}

// refItemCmp is BulkLoad's sort order: key order with Ref as tie-break. Refs
// are distinct, so the order is strict and total — any correct sort yields
// the same permutation, which is what lets sortItems use an unstable one.
func refItemCmp(a, b Item) int {
	if c := refCompareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Ref, b.Ref)
}

// Delete removes the item with the given key and ref, returning false
// when no such item is indexed. Key lengths must match the tree's.
func (t *refTree) Delete(key bitkey.PatternKey, ref int) bool {
	t.checkKey(key)
	if !t.deleteIn(t.root, key, ref) {
		return false
	}
	t.size--
	// A single-refEntry internal root adds a level no search needs.
	for !t.root.leaf && len(t.root.entries) == 1 {
		t.root = t.root.entries[0].child
		t.height--
	}
	return true
}

func (t *refTree) deleteIn(n *refNode, key bitkey.PatternKey, ref int) bool {
	if n.leaf {
		for i, e := range n.entries {
			if e.item.Ref == ref && keyEqual(e.key, key) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				return true
			}
		}
		return false
	}
	for i, e := range n.entries {
		// A union key contains every key below it, so subtrees whose
		// refEntry does not contain the target cannot hold it.
		if !keyContains(e.key, key) {
			continue
		}
		if t.deleteIn(e.child, key, ref) {
			if len(e.child.entries) == 0 {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
			} else {
				n.entries[i].key = refUnionOf(e.child)
			}
			return true
		}
	}
	return false
}

// GrowKeys widens every key in the tree to the given lengths. Grown bits
// are high-order zeros — existing bit positions keep their meaning — so
// search results for already-indexed patterns are unchanged; the tree
// merely becomes able to hold keys mentioning newly minted regions or
// consequence offsets. Shrinking panics.
func (t *refTree) GrowKeys(ckLen, rkLen int) {
	if ckLen < t.ckLen || rkLen < t.rkLen {
		panic(fmt.Sprintf("tpt: GrowKeys (%d,%d) would shrink tree keys (%d,%d)",
			ckLen, rkLen, t.ckLen, t.rkLen))
	}
	if ckLen == t.ckLen && rkLen == t.rkLen {
		return
	}
	var rec func(n *refNode)
	rec = func(n *refNode) {
		for i := range n.entries {
			e := &n.entries[i]
			e.key = bitkey.PatternKey{CK: e.key.CK.Grown(ckLen), RK: e.key.RK.Grown(rkLen)}
			if n.leaf {
				e.item.Key = e.key
			} else {
				rec(e.child)
			}
		}
	}
	rec(t.root)
	t.ckLen, t.rkLen = ckLen, rkLen
}
