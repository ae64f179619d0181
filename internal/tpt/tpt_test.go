package tpt

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hpm/internal/bitkey"
)

// randomItem builds an item with a single consequence bit and 1..maxPremise
// premise bits, the shape real pattern keys have.
func randomItem(r *rand.Rand, ckLen, rkLen, ref int) Item {
	k := bitkey.NewPatternKey(ckLen, rkLen)
	k.CK.Set(1 + r.Intn(ckLen))
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		k.RK.Set(1 + r.Intn(rkLen))
	}
	return Item{Key: k, Conf: r.Float64(), Ref: ref}
}

func randomQuery(r *rand.Rand, ckLen, rkLen int) bitkey.PatternKey {
	q := bitkey.NewPatternKey(ckLen, rkLen)
	q.CK.Set(1 + r.Intn(ckLen))
	for i := 0; i < 1+r.Intn(4); i++ {
		q.RK.Set(1 + r.Intn(rkLen))
	}
	return q
}

// visitAll accepts every hit.
func visitAll(int, int, bitkey.Key) bool { return true }

func collectIntersect(t *Tree, q bitkey.PatternKey) []int {
	var refs []int
	t.SearchIntersect(q, func(ref, _ int, _ bitkey.Key) bool {
		refs = append(refs, ref)
		return true
	})
	sort.Ints(refs)
	return refs
}

func collectConsequence(t *Tree, q bitkey.PatternKey) []int {
	var refs []int
	t.SearchConsequence(q, func(ref, _ int, _ bitkey.Key) bool {
		refs = append(refs, ref)
		return true
	})
	sort.Ints(refs)
	return refs
}

func bruteIntersect(items []Item, q bitkey.PatternKey) []int {
	var refs []int
	for _, it := range items {
		if it.Key.Intersects(q) {
			refs = append(refs, it.Ref)
		}
	}
	sort.Ints(refs)
	return refs
}

func bruteConsequence(items []Item, q bitkey.PatternKey) []int {
	var refs []int
	for _, it := range items {
		if keyIntersectsConsequence(it.Key, q) {
			refs = append(refs, it.Ref)
		}
	}
	sort.Ints(refs)
	return refs
}

// All visits every indexed item in key order of the leaves, as an Item
// without a confidence: the tree keeps none. The keys handed out are copies.
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
			if !visit(Item{Key: key, Ref: int(n.refs[i])}) {
				return false
			}
		}
		return true
	}
	rec(t.root)
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkInvariants verifies structural invariants: internal entry keys are
// exactly the union of their subtree, all leaves share one depth, node fill
// respects [minEntries, maxEntries] except at the root (minFill false drops
// the lower bound, which deletion does not keep), slabs hold exactly one
// stride per entry, and size matches.
func checkInvariants(t *testing.T, tree *Tree, minFill bool) {
	t.Helper()
	count := 0
	depthOfLeaf := -1
	var rec func(n *node, depth int, isRoot bool) []uint64
	rec = func(n *node, depth int, isRoot bool) []uint64 {
		if len(n.keys) != n.len()*tree.stride || (n.leaf && n.kids != nil) || (!n.leaf && n.refs != nil) {
			t.Fatalf("node slabs out of step: %d key words, %d refs, %d kids, stride %d", len(n.keys), len(n.refs), len(n.kids), tree.stride)
		}
		u := make([]uint64, tree.stride)
		if n.len() == 0 {
			if !isRoot {
				t.Fatal("empty non-root node")
			}
			return u
		}
		if !isRoot && minFill && n.len() < tree.minEntries {
			t.Fatalf("node fill %d below %d", n.len(), tree.minEntries)
		}
		if n.len() > tree.maxEntries {
			t.Fatalf("node overflow: %d > %d", n.len(), tree.maxEntries)
		}
		for i := 0; i < n.len(); i++ {
			if n.leaf {
				count++
				if depthOfLeaf == -1 {
					depthOfLeaf = depth
				} else if depthOfLeaf != depth {
					t.Fatalf("leaves at depths %d and %d", depthOfLeaf, depth)
				}
			} else if sub := rec(n.kids[i], depth+1, false); !slices.Equal(tree.key(n, i), sub) {
				t.Fatalf("internal key %x != subtree union %x", tree.key(n, i), sub)
			}
			bitkey.OrWords(u, tree.key(n, i))
		}
		return u
	}
	rec(tree.root, 1, true)
	if count != tree.size {
		t.Fatalf("counted %d items, size says %d", count, tree.size)
	}
	if depthOfLeaf != -1 && depthOfLeaf != tree.height {
		t.Fatalf("leaf depth %d != height %d", depthOfLeaf, tree.height)
	}
}

func TestEmptyTree(t *testing.T) {
	tree := New(2, 5, Options{})
	if tree.Len() != 0 || tree.height != 1 {
		t.Fatalf("empty tree: len %d height %d", tree.Len(), tree.height)
	}
	q := mustParsePattern("1000011", 2)
	if got := collectIntersect(tree, q); len(got) != 0 {
		t.Errorf("search on empty tree found %v", got)
	}
}

// Paper Figure 4: the four Jane patterns indexed, queried with 1000011.
// The two shaded leaf entries (P2, P3) must be returned and the P0/P1 leaf
// must be pruned.
func TestPaperFigure4(t *testing.T) {
	items := []Item{
		{Key: mustParsePattern("0100001", 2), Conf: 0.9, Ref: 0}, // P0
		{Key: mustParsePattern("0100001", 2), Conf: 0.8, Ref: 1}, // P1
		{Key: mustParsePattern("1000011", 2), Conf: 0.5, Ref: 2}, // P2
		{Key: mustParsePattern("1000101", 2), Conf: 0.4, Ref: 3}, // P3
	}
	tree := New(2, 5, Options{})
	for _, it := range items {
		tree.Insert(it)
	}
	q := mustParsePattern("1000011", 2)
	got := collectIntersect(tree, q)
	if !equalInts(got, []int{2, 3}) {
		t.Errorf("Figure 4 query returned %v, want [2 3]", got)
	}
	checkInvariants(t, tree, true)
}

func TestInsertSearchEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		ckLen := 4 + r.Intn(20)
		rkLen := 10 + r.Intn(100)
		n := 50 + r.Intn(500)
		items := make([]Item, n)
		tree := New(ckLen, rkLen, Options{MaxEntries: 4 + r.Intn(28)})
		for i := range items {
			items[i] = randomItem(r, ckLen, rkLen, i)
			tree.Insert(items[i])
		}
		checkInvariants(t, tree, true)
		for qi := 0; qi < 25; qi++ {
			q := randomQuery(r, ckLen, rkLen)
			if got, want := collectIntersect(tree, q), bruteIntersect(items, q); !equalInts(got, want) {
				t.Fatalf("trial %d: intersect mismatch: got %v want %v", trial, got, want)
			}
			if got, want := collectConsequence(tree, q), bruteConsequence(items, q); !equalInts(got, want) {
				t.Fatalf("trial %d: consequence mismatch: got %v want %v", trial, got, want)
			}
		}
	}
}

func TestBulkLoadEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 8; trial++ {
		ckLen, rkLen := 10, 80
		n := 1 + r.Intn(2000)
		items := make([]Item, n)
		for i := range items {
			items[i] = randomItem(r, ckLen, rkLen, i)
		}
		tree := BulkLoad(ckLen, rkLen, items, Options{MaxEntries: 16})
		if tree.Len() != n {
			t.Fatalf("bulk tree has %d items, want %d", tree.Len(), n)
		}
		for qi := 0; qi < 20; qi++ {
			q := randomQuery(r, ckLen, rkLen)
			if got, want := collectIntersect(tree, q), bruteIntersect(items, q); !equalInts(got, want) {
				t.Fatalf("trial %d: bulk intersect mismatch", trial)
			}
		}
	}
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tree := BulkLoad(2, 5, nil, Options{})
	if tree.Len() != 0 {
		t.Error("empty bulk load not empty")
	}
	one := []Item{{Key: mustParsePattern("0100001", 2), Ref: 7}}
	tree = BulkLoad(2, 5, one, Options{})
	if tree.Len() != 1 || tree.height != 1 {
		t.Errorf("single bulk load: len %d height %d", tree.Len(), tree.height)
	}
	got := collectIntersect(tree, mustParsePattern("0100001", 2))
	if !equalInts(got, []int{7}) {
		t.Errorf("single item not found: %v", got)
	}
}

func TestMixedBulkThenInsert(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	ckLen, rkLen := 8, 60
	var items []Item
	for i := 0; i < 300; i++ {
		items = append(items, randomItem(r, ckLen, rkLen, i))
	}
	tree := BulkLoad(ckLen, rkLen, items[:200], Options{MaxEntries: 8})
	for _, it := range items[200:] {
		tree.Insert(it)
	}
	checkInvariants(t, tree, true)
	for qi := 0; qi < 30; qi++ {
		q := randomQuery(r, ckLen, rkLen)
		if got, want := collectIntersect(tree, q), bruteIntersect(items, q); !equalInts(got, want) {
			t.Fatalf("mixed tree mismatch: got %v want %v", got, want)
		}
	}
}

func TestDisableIntersectStepStillCorrect(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	ckLen, rkLen := 6, 40
	var items []Item
	tree := New(ckLen, rkLen, Options{MaxEntries: 8, DisableIntersectStep: true})
	for i := 0; i < 400; i++ {
		it := randomItem(r, ckLen, rkLen, i)
		items = append(items, it)
		tree.Insert(it)
	}
	checkInvariants(t, tree, true)
	for qi := 0; qi < 30; qi++ {
		q := randomQuery(r, ckLen, rkLen)
		if got, want := collectIntersect(tree, q), bruteIntersect(items, q); !equalInts(got, want) {
			t.Fatal("ablated ChooseLeaf broke search correctness")
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	tree := New(4, 20, Options{})
	for i := 0; i < 200; i++ {
		tree.Insert(randomItem(r, 4, 20, i))
	}
	q := bitkey.NewPatternKey(4, 20)
	for i := 1; i <= 4; i++ {
		q.CK.Set(i)
	}
	for i := 1; i <= 20; i++ {
		q.RK.Set(i)
	}
	seen := 0
	tree.SearchIntersect(q, func(int, int, bitkey.Key) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Errorf("early stop visited %d items, want 5", seen)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	tree := New(4, 20, Options{MaxEntries: 6})
	want := map[int]bool{}
	for i := 0; i < 150; i++ {
		tree.Insert(randomItem(r, 4, 20, i))
		want[i] = true
	}
	got := map[int]bool{}
	tree.All(func(it Item) bool {
		got[it.Ref] = true
		return true
	})
	if len(got) != len(want) {
		t.Errorf("All visited %d items, want %d", len(got), len(want))
	}
}

func TestKeyLengthMismatchPanics(t *testing.T) {
	tree := New(2, 5, Options{})
	defer func() {
		if recover() == nil {
			t.Error("mismatched key did not panic")
		}
	}()
	tree.Insert(Item{Key: bitkey.NewPatternKey(3, 5)})
}

// walkStats is Tree.Stats the long way: a walk over every node.
func walkStats(t *Tree) TreeStats {
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

func TestStats(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	tree := New(10, 80, Options{MaxEntries: 8})
	// The node counts Stats reads must equal a walk's after every kind of
	// change to the structure: inserts and their splits, deletes down to
	// the empty tree, a bulk load, a build from a shape, a key growth.
	requireWalk := func(what string, tree *Tree) {
		t.Helper()
		if got, want := tree.Stats(), walkStats(tree); got != want {
			t.Fatalf("%s: Stats %+v, walk %+v", what, got, want)
		}
	}
	requireWalk("empty", tree)
	items := make([]Item, 500)
	for i := range items {
		items[i] = randomItem(r, 10, 80, i)
		tree.Insert(items[i])
		requireWalk("insert", tree)
	}
	s := tree.Stats()
	if s.Items != 500 {
		t.Errorf("Stats.Items = %d, want 500", s.Items)
	}
	if s.LeafNodes == 0 || s.InternalNode == 0 {
		t.Errorf("Stats nodes: %+v", s)
	}
	if s.Height != tree.height {
		t.Errorf("Stats.Height = %d, want %d", s.Height, tree.height)
	}
	if s.StorageBytes <= 0 {
		t.Error("StorageBytes not positive")
	}
	bulk := BulkLoad(10, 80, items, Options{MaxEntries: 8})
	requireWalk("bulk load", bulk)
	sh := bulk.Shape()
	built, err := Build(10, 80, len(items), &sh, Options{MaxEntries: 8}, fillFrom(items))
	if err != nil {
		t.Fatal(err)
	}
	requireWalk("build from a shape", built)
	for _, i := range r.Perm(len(items)) {
		if deleteItems(tree, items[i]) != 1 {
			t.Fatalf("Delete(ref %d) found nothing", i)
		}
		requireWalk("delete", tree)
	}
	bulk.GrowKeys(70, 130)
	requireWalk("grow keys", bulk)
	// More frequent regions (wider keys) must cost more storage for the
	// same item count — the Figure 11(a) effect.
	wide := New(10, 800, Options{MaxEntries: 8})
	r2 := rand.New(rand.NewSource(53))
	for i := 0; i < 500; i++ {
		wide.Insert(randomItem(r2, 10, 800, i))
	}
	if wide.Stats().StorageBytes <= s.StorageBytes {
		t.Error("wider keys did not increase storage")
	}
}

func TestBruteForceBaseline(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	var items []Item
	for i := 0; i < 300; i++ {
		items = append(items, randomItem(r, 6, 40, i))
	}
	bf := NewBruteForce(items)
	if bf.Len() != 300 {
		t.Fatalf("Len = %d", bf.Len())
	}
	for qi := 0; qi < 20; qi++ {
		q := randomQuery(r, 6, 40)
		var got []int
		examined := bf.SearchIntersect(q, func(ref, _ int, _ bitkey.Key) bool {
			got = append(got, ref)
			return true
		})
		if examined != 300 {
			t.Errorf("brute force examined %d, want 300", examined)
		}
		sort.Ints(got)
		if want := bruteIntersect(items, q); !equalInts(got, want) {
			t.Fatal("BruteForce.SearchIntersect mismatch")
		}
		var gotC []int
		bf.SearchConsequence(q, func(ref, _ int, _ bitkey.Key) bool {
			gotC = append(gotC, ref)
			return true
		})
		sort.Ints(gotC)
		if want := bruteConsequence(items, q); !equalInts(gotC, want) {
			t.Fatal("BruteForce.SearchConsequence mismatch")
		}
	}
}

// The paper's motivation for the tree: node accesses must stay well below
// a full scan for selective queries.
func TestSearchPrunesNodes(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	ckLen, rkLen := 50, 400
	var items []Item
	for i := 0; i < 5000; i++ {
		items = append(items, randomItem(r, ckLen, rkLen, i))
	}
	tree := BulkLoad(ckLen, rkLen, items, Options{MaxEntries: 32})
	total := tree.Stats().LeafNodes + tree.Stats().InternalNode
	q := bitkey.NewPatternKey(ckLen, rkLen)
	q.CK.Set(1 + r.Intn(ckLen))
	q.RK.Set(1 + r.Intn(rkLen))
	touched := tree.SearchIntersect(q, visitAll)
	if touched >= total {
		t.Errorf("search touched %d of %d nodes: no pruning", touched, total)
	}
}

// Len returns the number of stored items.
func (b *BruteForce) Len() int { return len(b.items) }

// SearchConsequence visits every item whose consequence key intersects q's,
// mirroring Tree.SearchConsequence.
func (b *BruteForce) SearchConsequence(q bitkey.PatternKey, visit Visit) int {
	for i := range b.items {
		if it := &b.items[i]; keyIntersectsConsequence(it.Key, q) && !visit(it.Ref, timeID(it.Key, q), it.Key.RK) {
			break
		}
	}
	return len(b.items)
}
