// Package tpt implements the Trajectory Pattern Tree of §V: a dynamic
// balanced tree over pattern-key bitmaps, derived from the signature tree of
// Mamoulis et al. (ICDE 2003) with two changes the paper introduces — leaf
// entries carry <pattern key, confidence, consequence pointer>, and the
// ChooseLeaf descent prefers subtrees that intersect the new key on both
// the consequence and the premise part, which keeps patterns answering the
// same queries clustered and makes Intersect-driven search cheap.
//
// Search is depth-first: an internal entry's key is the bitwise OR of its
// subtree, so a query key that fails the intersection predicate against the
// entry cannot match anything below it and the subtree is skipped.
package tpt

import (
	"cmp"
	"fmt"
	"slices"

	"hpm/internal/bitkey"
	"hpm/internal/parallel"
)

// Item is one indexed trajectory pattern: its pattern key, its confidence,
// and a caller-defined reference (typically the index of the pattern in the
// miner's output), which plays the role of the paper's region-key pointer p.
type Item struct {
	Key  bitkey.PatternKey
	Conf float64
	Ref  int
}

// Options tune the tree shape.
type Options struct {
	// MaxEntries is the node capacity M; values <= 0 default to
	// DefaultMaxEntries. MinEntries is derived as max(2, 2M/5).
	MaxEntries int
	// DisableIntersectStep removes the paper's extra ChooseLeaf rule
	// (line 7-8 of Algorithm 1) so the descent degenerates to the plain
	// signature-tree difference heuristic. Exists for the ablation bench.
	DisableIntersectStep bool
	// Parallelism caps how many goroutines BulkLoad's sorted-run phase
	// uses; <= 1 sorts serially. The parallel path sorts contiguous runs
	// concurrently and merges them under a total order, so the loaded tree
	// is identical to a serial build for any value. Runtime-only: not part
	// of a tree's persistent identity.
	Parallelism int `json:"-"`
}

// DefaultMaxEntries is the default node capacity.
const DefaultMaxEntries = 32

// Tree is a Trajectory Pattern Tree. The zero value is not usable; call New.
type Tree struct {
	root         *node
	ckLen, rkLen int
	maxEntries   int
	minEntries   int
	size         int
	height       int
	noIntersect  bool
}

type entry struct {
	key   bitkey.PatternKey
	child *node // internal nodes only
	item  Item  // leaf nodes only (item.Key aliases key)
}

type node struct {
	leaf    bool
	entries []entry
}

// New returns an empty tree for pattern keys with ckLen consequence bits
// and rkLen premise bits.
func New(ckLen, rkLen int, opts Options) *Tree {
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
	return &Tree{
		root:        &node{leaf: true},
		ckLen:       ckLen,
		rkLen:       rkLen,
		maxEntries:  m,
		minEntries:  min,
		height:      1,
		noIntersect: opts.DisableIntersectStep,
	}
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Insert adds an item to the tree. It panics when the item's key lengths do
// not match the tree's.
func (t *Tree) Insert(it Item) {
	t.checkKey(it.Key)
	split := t.insert(t.root, it)
	if split != nil {
		// Root overflow: grow a new root above both halves.
		old := t.root
		t.root = &node{leaf: false, entries: []entry{
			{key: unionOf(old), child: old},
			{key: unionOf(split), child: split},
		}}
		t.height++
	}
	t.size++
}

func (t *Tree) checkKey(k bitkey.PatternKey) {
	if k.CK.Len() != t.ckLen || k.RK.Len() != t.rkLen {
		panic(fmt.Sprintf("tpt: key lengths (%d,%d) do not match tree (%d,%d)",
			k.CK.Len(), k.RK.Len(), t.ckLen, t.rkLen))
	}
}

// insert recursively places it under n and returns a non-nil node when n
// was split and the caller must register the new sibling.
func (t *Tree) insert(n *node, it Item) *node {
	if n.leaf {
		n.entries = append(n.entries, entry{key: it.Key, item: it})
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
		return nil
	}
	i := t.chooseSubtree(n, it.Key)
	n.entries[i].key = n.entries[i].key.Union(it.Key)
	if split := t.insert(n.entries[i].child, it); split != nil {
		n.entries[i].key = unionOf(n.entries[i].child)
		n.entries = append(n.entries, entry{key: unionOf(split), child: split})
		if len(n.entries) > t.maxEntries {
			return t.split(n)
		}
	}
	return nil
}

// chooseSubtree implements Algorithm 1 (ChooseLeaf) for one level: prefer
// the smallest containing entry, then — unless disabled — the
// intersecting entry with the smallest difference, then the smallest
// difference overall. Ties resolve to the smallest entry size.
func (t *Tree) chooseSubtree(n *node, pk bitkey.PatternKey) int {
	best := -1
	bestSize := 0
	// Rule 1: containment.
	for i, e := range n.entries {
		if e.key.Contains(pk) {
			if s := e.key.Size(); best < 0 || s < bestSize {
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
				d, s := pk.Difference(e.key), e.key.Size()
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
		d, s := pk.Difference(e.key), e.key.Size()
		if best < 0 || d < bestDiff || (d == bestDiff && s < bestSize) {
			best, bestDiff, bestSize = i, d, s
		}
	}
	return best
}

// split divides an overflowing node in two, quadratic-seed style: the two
// entries with the largest symmetric key difference seed the groups, and
// each remaining entry joins the group whose union key grows least.
func (t *Tree) split(n *node) *node {
	entries := n.entries
	// Seed selection.
	s1, s2 := 0, 1
	worst := -1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].key.Difference(entries[j].key) + entries[j].key.Difference(entries[i].key)
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := []entry{entries[s1]}
	g2 := []entry{entries[s2]}
	u1 := entries[s1].key.Clone()
	u2 := entries[s2].key.Clone()

	rest := make([]entry, 0, len(entries)-2)
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
			u1.UnionInPlace(e.key)
			continue
		}
		if len(g2)+remaining <= t.minEntries {
			g2 = append(g2, e)
			u2.UnionInPlace(e.key)
			continue
		}
		grow1 := e.key.Difference(u1)
		grow2 := e.key.Difference(u2)
		if grow1 < grow2 || (grow1 == grow2 && u1.Size() <= u2.Size()) {
			g1 = append(g1, e)
			u1.UnionInPlace(e.key)
		} else {
			g2 = append(g2, e)
			u2.UnionInPlace(e.key)
		}
	}
	n.entries = g1
	return &node{leaf: n.leaf, entries: g2}
}

// unionOf returns the OR of all entry keys of n.
func unionOf(n *node) bitkey.PatternKey {
	u := n.entries[0].key.Clone()
	for _, e := range n.entries[1:] {
		u.UnionInPlace(e.key)
	}
	return u
}

// SearchIntersect visits every item whose key intersects q on both the
// consequence and the premise part (the FQP retrieval predicate). The visit
// callback returns false to stop early. It reports the number of tree nodes
// touched, the cost metric of Figure 11(b).
func (t *Tree) SearchIntersect(q bitkey.PatternKey, visit func(Item) bool) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, &q, true, visit)
	return nodes
}

// SearchConsequence visits every item whose consequence key intersects q's,
// ignoring premises entirely — the relaxed predicate of Backward Query
// Processing.
func (t *Tree) SearchConsequence(q bitkey.PatternKey, visit func(Item) bool) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, &q, false, visit)
	return nodes
}

// search is the one descent both predicates share: an entry qualifies when
// its consequence part intersects q's and, with premise set, its premise
// part does too. Entries are tested in place — an entry is 152 bytes and
// most fail the test, so the walk copies nothing until an item is visited.
func (t *Tree) search(n *node, q *bitkey.PatternKey, premise bool, visit func(Item) bool) (nodes int, stopped bool) {
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
func (t *Tree) All(visit func(Item) bool) {
	var rec func(n *node) bool
	rec = func(n *node) bool {
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

// BulkLoad builds a tree from items bottom-up: items are sorted so patterns
// with the same consequence time offset pack into the same leaves, leaves
// are filled to capacity, and parent levels are built from the unions. This
// is the paper's bulk loading for the static (historical) pattern set;
// dynamic arrivals then use Insert.
func BulkLoad(ckLen, rkLen int, items []Item, opts Options) *Tree {
	t := New(ckLen, rkLen, opts)
	if len(items) == 0 {
		return t
	}
	sorted := make([]Item, len(items))
	copy(sorted, items)
	sortItems(sorted, opts.Parallelism)
	for _, it := range sorted {
		t.checkKey(it.Key)
	}
	// Leaf level. packBounds keeps every node (beyond a lone root) at or
	// above the minimum fill so later Inserts preserve the invariants.
	var level []*node
	for _, b := range packBounds(len(sorted), t.maxEntries, t.minEntries) {
		n := &node{leaf: true}
		for _, it := range sorted[b[0]:b[1]] {
			n.entries = append(n.entries, entry{key: it.Key, item: it})
		}
		level = append(level, n)
	}
	height := 1
	for len(level) > 1 {
		var up []*node
		for _, b := range packBounds(len(level), t.maxEntries, t.minEntries) {
			n := &node{leaf: false}
			for _, child := range level[b[0]:b[1]] {
				n.entries = append(n.entries, entry{key: unionOf(child), child: child})
			}
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

// packBounds slices n items into groups of at most max entries where every
// group except a lone first one holds at least min entries: when the tail
// group would underflow, items are rebalanced from the previous group.
func packBounds(n, max, min int) [][2]int {
	if n == 0 {
		return nil
	}
	var bounds [][2]int
	for lo := 0; lo < n; {
		hi := lo + max
		if hi > n {
			hi = n
		}
		// If what remains after this group is a non-empty underfull tail,
		// shrink this group to leave the tail at least min items.
		rest := n - hi
		if rest > 0 && rest < min {
			hi -= min - rest
			if hi-lo < min {
				hi = lo + min // both can't underflow since n-lo >= max >= 2*min is not guaranteed; favour this group
			}
		}
		bounds = append(bounds, [2]int{lo, hi})
		lo = hi
	}
	// A final underfull group can still occur when n < 2*min in total;
	// merge it into its predecessor if that stays within capacity.
	if len(bounds) >= 2 {
		last := bounds[len(bounds)-1]
		prev := bounds[len(bounds)-2]
		if last[1]-last[0] < min && last[1]-prev[0] <= max {
			bounds[len(bounds)-2] = [2]int{prev[0], last[1]}
			bounds = bounds[:len(bounds)-1]
		}
	}
	return bounds
}

// compareKeys orders pattern keys by consequence part then premise part,
// most significant bits first, so bulk loading clusters same-consequence
// patterns together.
func compareKeys(a, b bitkey.PatternKey) int {
	if c := a.CK.Compare(b.CK); c != 0 {
		return c
	}
	return a.RK.Compare(b.RK)
}

// itemCmp is BulkLoad's sort order: key order with Ref as tie-break. Refs
// are distinct, so the order is strict and total — any correct sort yields
// the same permutation, which is what lets sortItems use an unstable one.
func itemCmp(a, b Item) int {
	if c := compareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	return cmp.Compare(a.Ref, b.Ref)
}

// sortItems orders items for bulk loading. With workers > 1 the slice is
// cut into contiguous runs, the runs sort concurrently, and sorted runs
// merge pairwise. itemCmp is a strict total order, so the result equals
// the serial sort byte-for-byte regardless of the worker count.
func sortItems(items []Item, workers int) {
	workers = parallel.Workers(workers)
	// Tiny inputs gain nothing from fan-out; the goroutine overhead
	// dominates below a few thousand comparisons per run.
	const minRun = 1024
	if workers > 1 && len(items)/workers < minRun {
		workers = len(items) / minRun
	}
	if workers <= 1 {
		slices.SortFunc(items, itemCmp)
		return
	}
	// Cut into `workers` contiguous runs.
	bounds := make([][2]int, 0, workers)
	for w := 0; w < workers; w++ {
		lo := w * len(items) / workers
		hi := (w + 1) * len(items) / workers
		if lo < hi {
			bounds = append(bounds, [2]int{lo, hi})
		}
	}
	parallel.For(len(bounds), workers, func(r int) {
		slices.SortFunc(items[bounds[r][0]:bounds[r][1]], itemCmp)
	})
	// Pairwise merge rounds until one run remains.
	scratch := make([]Item, len(items))
	for len(bounds) > 1 {
		var merged [][2]int
		for i := 0; i < len(bounds); i += 2 {
			if i+1 == len(bounds) {
				merged = append(merged, bounds[i])
				continue
			}
			lo, mid, hi := bounds[i][0], bounds[i][1], bounds[i+1][1]
			mergeRuns(items, scratch, lo, mid, hi)
			merged = append(merged, [2]int{lo, hi})
		}
		bounds = merged
	}
}

// mergeRuns merges the sorted runs items[lo:mid] and items[mid:hi] in place
// via the scratch buffer.
func mergeRuns(items, scratch []Item, lo, mid, hi int) {
	i, j, o := lo, mid, lo
	for i < mid && j < hi {
		if itemCmp(items[j], items[i]) < 0 {
			scratch[o] = items[j]
			j++
		} else {
			scratch[o] = items[i]
			i++
		}
		o++
	}
	copy(scratch[o:], items[i:mid])
	o += mid - i
	copy(scratch[o:], items[j:hi])
	copy(items[lo:hi], scratch[lo:hi])
}
