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
//
// Storage is what Figure 11(a) charges: a node keeps its entries' keys
// packed in one pointer-free word slab — stride words per entry — beside a
// 16-byte payload per leaf entry (confidence, reference) or an 8-byte child
// pointer per internal entry. A key of three words therefore costs a leaf
// 40 bytes and no heap object of its own. Within an entry the premise key's
// words come first and the consequence key's last, so the entry read as one
// number, most significant word first, is the paper's concatenation with
// the consequence key in front — the order a bulk load sorts by.
package tpt

import (
	"cmp"
	"fmt"
	"slices"

	"hpm/internal/bitkey"
)

// Item is one indexed trajectory pattern: its pattern key, its confidence,
// and a caller-defined reference (typically the index of the pattern in the
// miner's output), which plays the role of the paper's region-key pointer p.
// It is the exchange form at the API; the tree stores the parts packed.
type Item struct {
	Key  bitkey.PatternKey
	Conf float64
	Ref  int
}

// Visit receives one search hit: the item's reference, the time id of its
// consequence — the 0-based position of the lowest consequence bit it shares
// with the query, which for a pattern key is its one consequence bit (§V-A) —
// its confidence and a view of its premise key, which aliases the tree's
// storage and is valid only for the duration of the call. It returns false to
// stop the search.
type Visit func(ref, tid int, conf float64, rk bitkey.Key) bool

// Options tune the tree shape.
type Options struct {
	// MaxEntries is the node capacity M; values <= 0 default to
	// DefaultMaxEntries. MinEntries is derived as max(2, 2M/5).
	MaxEntries int
	// DisableIntersectStep removes the paper's extra ChooseLeaf rule
	// (line 7-8 of Algorithm 1) so the descent degenerates to the plain
	// signature-tree difference heuristic. Exists for the ablation bench.
	DisableIntersectStep bool
}

// DefaultMaxEntries is the default node capacity.
const DefaultMaxEntries = 32

// Tree is a Trajectory Pattern Tree. The zero value is not usable; call New.
type Tree struct {
	root         *node
	ckLen, rkLen int
	rw, stride   int // words of a premise key; words of a whole key
	maxEntries   int
	minEntries   int
	size         int
	height       int
	noIntersect  bool
}

// payload is what a leaf entry holds beside its key.
type payload struct {
	conf float64
	ref  int
}

// node holds its entries column-wise: entry i's key is keys[i*stride :
// (i+1)*stride], its payload items[i] in a leaf and kids[i] otherwise.
type node struct {
	leaf  bool
	keys  []uint64
	items []payload
	kids  []*node
}

func (n *node) len() int {
	if n.leaf {
		return len(n.items)
	}
	return len(n.kids)
}

func words(bits int) int { return (bits + 63) / 64 }

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
		rw:          words(rkLen),
		stride:      words(rkLen) + words(ckLen),
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

// key returns entry i's key words, capped so an append cannot run into the
// next entry.
func (t *Tree) key(n *node, i int) []uint64 {
	lo, hi := i*t.stride, (i+1)*t.stride
	return n.keys[lo:hi:hi]
}

// keyBuf is the stack space flat gets for a key; wider keys spill to the heap.
const keyBuf = 8

// flat checks k against the tree's key lengths and returns its words in
// entry layout, in buf when they fit.
func (t *Tree) flat(buf []uint64, k bitkey.PatternKey) []uint64 {
	t.checkKey(k)
	return append(append(buf[:0], k.RK.Words()...), k.CK.Words()...)
}

func (t *Tree) checkKey(k bitkey.PatternKey) {
	if k.CK.Len() != t.ckLen || k.RK.Len() != t.rkLen {
		panic(fmt.Sprintf("tpt: key lengths (%d,%d) do not match tree (%d,%d)",
			k.CK.Len(), k.RK.Len(), t.ckLen, t.rkLen))
	}
}

// Insert adds an item to the tree. It panics when the item's key lengths do
// not match the tree's.
func (t *Tree) Insert(it Item) {
	var buf [keyBuf]uint64
	pk := t.flat(buf[:], it.Key)
	if split := t.insert(t.root, pk, payload{it.Conf, it.Ref}); split != nil {
		// Root overflow: grow a new root above both halves.
		old := t.root
		t.root = &node{kids: []*node{old, split}}
		t.root.keys = t.unionOf(t.unionOf(make([]uint64, 0, 2*t.stride), old), split)
		t.height++
	}
	t.size++
}

// insert recursively places the item under n and returns a non-nil node
// when n was split and the caller must register the new sibling.
func (t *Tree) insert(n *node, pk []uint64, p payload) *node {
	if n.leaf {
		n.keys = append(n.keys, pk...)
		n.items = append(n.items, p)
	} else {
		i := t.chooseSubtree(n, pk)
		bitkey.OrWords(t.key(n, i), pk)
		split := t.insert(n.kids[i], pk, p)
		if split == nil {
			return nil
		}
		t.unionOf(t.key(n, i)[:0], n.kids[i])
		n.keys = t.unionOf(n.keys, split)
		n.kids = append(n.kids, split)
	}
	if n.len() > t.maxEntries {
		return t.split(n)
	}
	return nil
}

// chooseSubtree implements Algorithm 1 (ChooseLeaf) for one level: prefer
// the smallest containing entry, then — unless disabled — the
// intersecting entry with the smallest difference, then the smallest
// difference overall. Ties resolve to the smallest entry size.
func (t *Tree) chooseSubtree(n *node, pk []uint64) int {
	best := -1
	bestSize := 0
	// Rule 1: containment.
	for i := range n.kids {
		if k := t.key(n, i); bitkey.ContainsWords(k, pk) {
			if s := bitkey.SizeWords(k); best < 0 || s < bestSize {
				best, bestSize = i, s
			}
		}
	}
	if best >= 0 {
		return best
	}
	// Rule 2, the paper's addition: among entries that intersect the key on
	// the consequence part and on the premise part, the smallest difference.
	// Rule 3: the smallest difference over every entry.
	rw := t.rw
	for _, all := range []bool{t.noIntersect, true} {
		bestDiff := 0
		for i := range n.kids {
			k := t.key(n, i)
			if all || (bitkey.IntersectWords(k[rw:], pk[rw:]) && bitkey.IntersectWords(k[:rw], pk[:rw])) {
				d, s := bitkey.DifferenceWords(pk, k), bitkey.SizeWords(k)
				if best < 0 || d < bestDiff || (d == bestDiff && s < bestSize) {
					best, bestDiff, bestSize = i, d, s
				}
			}
		}
		if best >= 0 {
			break
		}
	}
	return best
}

// split divides an overflowing node in two, quadratic-seed style: the two
// entries with the largest symmetric key difference seed the groups, and
// each remaining entry joins the group whose union key grows least.
func (t *Tree) split(n *node) *node {
	cnt := n.len()
	// Seed selection.
	s1, s2 := 0, 1
	worst := -1
	for i := 0; i < cnt; i++ {
		for j := i + 1; j < cnt; j++ {
			ki, kj := t.key(n, i), t.key(n, j)
			if d := bitkey.DifferenceWords(ki, kj) + bitkey.DifferenceWords(kj, ki); d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	g1 := append(make([]int32, 0, cnt), int32(s1))
	g2 := append(make([]int32, 0, cnt), int32(s2))
	u := append(append(make([]uint64, 0, 2*t.stride), t.key(n, s1)...), t.key(n, s2)...)
	u1, u2 := u[:t.stride], u[t.stride:]
	for i, remaining := 0, cnt-2; i < cnt; i++ {
		if i == s1 || i == s2 {
			continue
		}
		k := t.key(n, i)
		var first bool
		switch {
		// Honour the minimum fill: hand the remainder to a starving group.
		case len(g1)+remaining <= t.minEntries:
			first = true
		case len(g2)+remaining <= t.minEntries:
			first = false
		default:
			grow1, grow2 := bitkey.DifferenceWords(k, u1), bitkey.DifferenceWords(k, u2)
			first = grow1 < grow2 || (grow1 == grow2 && bitkey.SizeWords(u1) <= bitkey.SizeWords(u2))
		}
		if first {
			g1 = append(g1, int32(i))
			bitkey.OrWords(u1, k)
		} else {
			g2 = append(g2, int32(i))
			bitkey.OrWords(u2, k)
		}
		remaining--
	}
	right := t.pick(n, g2)
	*n = *t.pick(n, g1)
	return right
}

// pick returns a node of n's kind holding n's entries idx, in that order,
// in slabs of exactly that size.
func (t *Tree) pick(n *node, idx []int32) *node {
	out := &node{leaf: n.leaf, keys: make([]uint64, 0, len(idx)*t.stride)}
	if n.leaf {
		out.items = make([]payload, len(idx))
	} else {
		out.kids = make([]*node, len(idx))
	}
	for o, i := range idx {
		out.keys = append(out.keys, t.key(n, int(i))...)
		if n.leaf {
			out.items[o] = n.items[i]
		} else {
			out.kids[o] = n.kids[i]
		}
	}
	return out
}

// unionOf appends the OR of all entry keys of n to dst.
func (t *Tree) unionOf(dst []uint64, n *node) []uint64 {
	dst = append(dst, n.keys[:t.stride]...)
	u := dst[len(dst)-t.stride:]
	for i := 1; i < n.len(); i++ {
		bitkey.OrWords(u, t.key(n, i))
	}
	return dst
}

// SearchIntersect visits every item whose key intersects q on both the
// consequence and the premise part (the FQP retrieval predicate). The visit
// callback returns false to stop early. It reports the number of tree nodes
// touched, the cost metric of Figure 11(b).
func (t *Tree) SearchIntersect(q bitkey.PatternKey, visit Visit) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, q.CK.Words(), q.RK.Words(), true, visit)
	return nodes
}

// SearchConsequence visits every item whose consequence key intersects q's,
// ignoring premises entirely — the relaxed predicate of Backward Query
// Processing.
func (t *Tree) SearchConsequence(q bitkey.PatternKey, visit Visit) int {
	t.checkKey(q)
	nodes, _ := t.search(t.root, q.CK.Words(), q.RK.Words(), false, visit)
	return nodes
}

// search is the one descent both predicates share: an entry qualifies when
// its consequence part intersects ck and, with premise set, its premise part
// intersects rk. The walk reads the node's key slab front to back and
// touches a payload only for entries that qualify; the time id a hit carries
// falls out of the consequence test it has just passed.
func (t *Tree) search(n *node, ck, rk []uint64, premise bool, visit Visit) (nodes int, stopped bool) {
	nodes = 1
	for i, cnt := 0, n.len(); i < cnt; i++ {
		k := t.key(n, i)
		tid := bitkey.SharedBitWords(k[t.rw:], ck)
		if tid < 0 || (premise && !bitkey.IntersectWords(k[:t.rw], rk)) {
			continue
		}
		if n.leaf {
			if p := n.items[i]; !visit(p.ref, tid, p.conf, bitkey.View(t.rkLen, k[:t.rw:t.rw])) {
				return nodes, true
			}
			continue
		}
		sub, stop := t.search(n.kids[i], ck, rk, premise, visit)
		nodes += sub
		if stop {
			return nodes, true
		}
	}
	return nodes, false
}

// All visits every indexed item in key order of the leaves. The keys handed
// out are copies.
func (t *Tree) All(visit func(Item) bool) {
	var rec func(n *node) bool
	rec = func(n *node) bool {
		for i, cnt := 0, n.len(); i < cnt; i++ {
			if !n.leaf {
				if !rec(n.kids[i]) {
					return false
				}
				continue
			}
			k := slices.Clone(t.key(n, i))
			key := bitkey.PatternKey{CK: bitkey.View(t.ckLen, k[t.rw:]), RK: bitkey.View(t.rkLen, k[:t.rw:t.rw])}
			if !visit(Item{Key: key, Conf: n.items[i].conf, Ref: n.items[i].ref}) {
				return false
			}
		}
		return true
	}
	rec(t.root)
}

// Fill describes item i to Build: it sets the item's key bits in the zeroed
// views ck and rk, which alias the tree's own storage — no key is allocated
// per item — and returns its confidence and reference.
type Fill func(i int, ck, rk bitkey.Key) (conf float64, ref int)

func (t *Tree) filled(fill Fill, i int, k []uint64) payload {
	conf, ref := fill(i, bitkey.View(t.ckLen, k[t.rw:]), bitkey.View(t.rkLen, k[:t.rw:t.rw]))
	return payload{conf, ref}
}

// Build returns the tree over the n items fill describes. With a nil shape
// it is the paper's bulk load of the static pattern set: the items are laid
// out as one oversized leaf, a sort of 4-byte indices finds the order in which
// patterns with the same consequence time offset pack into the same leaves,
// and packCounts cuts every level to capacity, keeping every node beyond a
// lone root at or above the minimum fill so later Inserts preserve the
// invariants. A given shape — a saved tree's, Refs naming items by index, as
// untrusted as the disk it came from — is checked in full and laid out as it
// stands: no sort, every key written where it stays. Only a shape can fail.
func Build(ckLen, rkLen, n int, sh *Shape, opts Options, fill Fill) (*Tree, error) {
	t := New(ckLen, rkLen, opts)
	if sh != nil {
		if err := sh.check(n, t.maxEntries); err != nil {
			return nil, err
		}
		t.build(*sh, func(i int32, key []uint64) payload { return t.filled(fill, int(i), key) })
		return t, nil
	}
	all := &node{leaf: true, keys: make([]uint64, n*t.stride), items: make([]payload, n)}
	sorted := Shape{Refs: make([]int32, n)}
	for i := range sorted.Refs {
		sorted.Refs[i] = int32(i)
		all.items[i] = t.filled(fill, i, t.key(all, i))
	}
	slices.SortFunc(sorted.Refs, func(a, b int32) int { return t.itemCmp(all, a, b) })
	for m, nodes := n, 0; m > 0 && nodes != 1; m = nodes { // level upon level, up to one root
		counts := packCounts(m, t.maxEntries, t.minEntries)
		sorted.Counts, nodes = append(sorted.Counts, counts), len(counts)
	}
	t.build(sorted, func(i int32, key []uint64) payload {
		copy(key, t.key(all, int(i)))
		return all.items[i]
	})
	return t, nil
}

// BulkLoad is Build over items, sorted into place. It panics when an item's
// key lengths do not match ckLen and rkLen.
func BulkLoad(ckLen, rkLen int, items []Item, opts Options) *Tree {
	t, _ := Build(ckLen, rkLen, len(items), nil, opts, func(i int, ck, rk bitkey.Key) (float64, int) {
		ck.OrInPlace(items[i].Key.CK) // checks the length
		rk.OrInPlace(items[i].Key.RK)
		return items[i].Conf, items[i].Ref
	})
	return t
}

// packCounts cuts n items into consecutive groups of at most max entries,
// every one but a lone first of at least min — a tail that would underflow
// takes items from the group before it — and returns the groups' sizes.
func packCounts(n, max, min int) []int32 {
	counts := make([]int32, 0, n/max+1)
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
		counts = append(counts, int32(hi-lo))
		lo = hi
	}
	// A final underfull group can still occur when n < 2*min in total;
	// merge it into its predecessor if that stays within capacity.
	if k := len(counts) - 2; k >= 0 && int(counts[k+1]) < min && int(counts[k]+counts[k+1]) <= max {
		counts[k] += counts[k+1]
		counts = counts[:k+1]
	}
	return counts
}

// itemCmp is the bulk-load sort order over a node's entries: consequence
// part then premise part, most significant bits first, so same-consequence
// patterns cluster, with the reference as tie-break. Refs are distinct, so
// the order is strict and total — any correct sort yields the same
// permutation, which is what lets Build use an unstable one.
func (t *Tree) itemCmp(n *node, a, b int32) int {
	if c := bitkey.CompareWords(t.key(n, int(a)), t.key(n, int(b))); c != 0 {
		return c
	}
	return cmp.Compare(n.items[a].ref, n.items[b].ref)
}
