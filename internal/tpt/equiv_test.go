package tpt

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"hpm/internal/bitkey"
)

// stats is Tree.Stats for the reference tree.
func (t *refTree) stats() TreeStats {
	s := TreeStats{Items: t.size, Height: t.height}
	keyBytes := (t.ckLen + t.rkLen + 7) / 8
	var rec func(n *refNode)
	rec = func(n *refNode) {
		s.Entries += len(n.entries)
		if n.leaf {
			s.LeafNodes++
			s.StorageBytes += len(n.entries) * (keyBytes + leafEntryOverhead)
			return
		}
		s.InternalNode++
		s.StorageBytes += len(n.entries) * (keyBytes + internalEntryOverhead)
		for _, e := range n.entries {
			rec(e.child)
		}
	}
	rec(t.root)
	return s
}

// sameShape walks both trees in step: every node must hold the same number
// of entries with the same keys, in the same order, down to the leaves.
func sameShape(t *testing.T, tree *Tree, rn *refNode, n *node, path string) {
	t.Helper()
	if rn.leaf != n.leaf || len(rn.entries) != n.len() {
		t.Fatalf("%s: reference node leaf=%v with %d entries, tree node leaf=%v with %d", path, rn.leaf, len(rn.entries), n.leaf, n.len())
	}
	for i, e := range rn.entries {
		want := append(slices.Clone(e.key.RK.Words()), e.key.CK.Words()...)
		if got := tree.key(n, i); !slices.Equal(got, want) {
			t.Fatalf("%s[%d]: key %x, reference %x", path, i, got, want)
		}
		if !n.leaf {
			sameShape(t, tree, e.child, n.kids[i], fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// requireSame asserts everything the layout change must not move: height,
// statistics, node-for-node shape, the All() sequence (key bits, conf, ref)
// and, for every query, the visit order — each hit with the time id of its
// entry's consequence bit — and the node count of both searches.
func requireSame(t *testing.T, ref *refTree, tree *Tree, queries []bitkey.PatternKey) {
	t.Helper()
	if ref.Height() != tree.Height() || ref.Len() != tree.Len() {
		t.Fatalf("height/len %d/%d, reference %d/%d", tree.Height(), tree.Len(), ref.Height(), ref.Len())
	}
	if got, want := tree.Stats(), ref.stats(); got != want {
		t.Fatalf("stats %+v, reference %+v", got, want)
	}
	sameShape(t, tree, ref.root, tree.root, "root")
	var want, got []Item
	ref.All(func(it Item) bool { want = append(want, it); return true })
	tree.All(func(it Item) bool { got = append(got, it); return true })
	if len(got) != len(want) {
		t.Fatalf("All visited %d items, reference %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ref != want[i].Ref || got[i].Conf != want[i].Conf || !got[i].Key.Equal(want[i].Key) {
			t.Fatalf("All()[%d] = ref %d conf %g key %s, reference ref %d conf %g key %s",
				i, got[i].Ref, got[i].Conf, got[i].Key, want[i].Ref, want[i].Conf, want[i].Key)
		}
	}
	for qi, q := range queries {
		for _, premise := range []bool{true, false} {
			var want []Item
			refVisit := func(it Item) bool { want = append(want, it); return true }
			seen, diverged := 0, -1
			visit := func(ref, tid int, conf float64, rk bitkey.Key) bool {
				// Every item of these tests carries one consequence bit, as a
				// pattern key does: the id handed over is its position.
				if diverged < 0 && (seen >= len(want) || want[seen].Ref != ref || want[seen].Conf != conf || !want[seen].Key.RK.Equal(rk) ||
					!slices.Equal(want[seen].Key.CK.Ones(), []int{tid + 1})) {
					diverged = seen
				}
				seen++
				return true
			}
			var wantNodes, gotNodes int
			if premise {
				wantNodes, gotNodes = ref.SearchIntersect(q, refVisit), tree.SearchIntersect(q, visit)
			} else {
				wantNodes, gotNodes = ref.SearchConsequence(q, refVisit), tree.SearchConsequence(q, visit)
			}
			if gotNodes != wantNodes || seen != len(want) || diverged >= 0 {
				t.Fatalf("query %d premise=%v: %d nodes and %d hits, reference %d and %d; visit order diverges at hit %d",
					qi, premise, gotNodes, seen, wantNodes, len(want), diverged)
			}
		}
	}
}

func seededQueries(r *rand.Rand, n, ckLen, rkLen int) []bitkey.PatternKey {
	qs := make([]bitkey.PatternKey, n)
	for i := range qs {
		qs[i] = randomQuery(r, ckLen, rkLen)
		// Some queries span a window of consequence offsets, as BQP's do.
		for b := 0; b < i%4; b++ {
			qs[i].CK.Set(1 + r.Intn(ckLen))
		}
	}
	return qs
}

func grownItem(it Item, ckLen, rkLen int) Item {
	it.Key = bitkey.PatternKey{CK: it.Key.CK.Grown(ckLen), RK: it.Key.RK.Grown(rkLen)}
	return it
}

// equivWidths are the key widths the equivalence tests run at: one word per
// part, the fleet's 1+2 words, the Figure 11 shape, and a pair that starts
// one bit short of a word boundary in both parts.
var equivWidths = [][2]int{{36, 37}, {59, 110}, {100, 800}, {63, 127}}

// TestBulkLoadMatchesReference: a bulk load over the slab layout yields the
// reference tree, node for node and answer for answer, duplicates included.
func TestBulkLoadMatchesReference(t *testing.T) {
	for _, w := range equivWidths {
		for _, c := range []struct{ n, maxEntries int }{{1, 0}, {31, 0}, {33, 0}, {700, 8}, {5000, 0}} {
			r := rand.New(rand.NewSource(int64(w[0]*1000 + c.n)))
			items := make([]Item, c.n)
			for i := range items {
				items[i] = randomItem(r, w[0], w[1], i)
				if i > 0 && i%9 == 0 { // equal keys: the order falls to the Ref tie-break
					items[i].Key = items[r.Intn(i)].Key
				}
			}
			r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			opts := Options{MaxEntries: c.maxEntries}
			ref, tree := refBulkLoad(w[0], w[1], items, opts), BulkLoad(w[0], w[1], items, opts)
			requireSame(t, ref, tree, seededQueries(r, 256, w[0], w[1]))
			checkInvariants(t, tree, true)
		}
	}
}

// TestMutationsMatchReference drives both trees through the same seeded
// sequence of Insert, Delete, UpdateConf and GrowKeys — starting from a bulk
// load or from empty, with and without the paper's intersect rule — and
// demands equality after every step, of the tree and of the tree the builder
// lays out from its shape. GrowKeys steps carry every width across
// a word boundary sooner or later; (63, 127) crosses both on the first.
func TestMutationsMatchReference(t *testing.T) {
	const steps = 500
	queriesPerStep := 256
	if testing.Short() {
		queriesPerStep = 16
	}
	for wi, w := range equivWidths {
		ckLen, rkLen := w[0], w[1]
		r := rand.New(rand.NewSource(int64(97 + wi)))
		opts := Options{MaxEntries: 4 + 4*wi, DisableIntersectStep: wi == 2}
		var alive []Item
		nextRef := 0
		for ; wi%2 == 0 && nextRef < 200; nextRef++ { // every other width starts from a bulk load
			alive = append(alive, randomItem(r, ckLen, rkLen, nextRef))
		}
		ref, tree := refBulkLoad(ckLen, rkLen, alive, opts), BulkLoad(ckLen, rkLen, alive, opts)
		for step := 0; step < steps; step++ {
			switch op := r.Intn(100); {
			case op < 3 || (step == 0 && wi == 3):
				ckLen, rkLen = ckLen+r.Intn(3), rkLen+1+r.Intn(4)
				ref.GrowKeys(ckLen, rkLen)
				tree.GrowKeys(ckLen, rkLen)
				for i := range alive {
					alive[i] = grownItem(alive[i], ckLen, rkLen)
				}
			case op < 35 && len(alive) > 0:
				i := r.Intn(len(alive))
				it := alive[i]
				alive = slices.Delete(alive, i, i+1)
				if a, b := ref.Delete(it.Key, it.Ref), tree.Delete(it.Key, it.Ref); !a || !b {
					t.Fatalf("width %v step %d: Delete(ref %d) = %v, reference %v", w, step, it.Ref, b, a)
				}
			case op < 50 && len(alive) > 0:
				it := &alive[r.Intn(len(alive))]
				it.Conf = r.Float64()
				if a, b := ref.UpdateConf(it.Key, it.Ref, it.Conf), tree.UpdateConf(it.Key, it.Ref, it.Conf); !a || !b {
					t.Fatalf("width %v step %d: UpdateConf(ref %d) = %v, reference %v", w, step, it.Ref, b, a)
				}
			default:
				it := randomItem(r, ckLen, rkLen, nextRef)
				nextRef++
				if len(alive) > 0 && r.Intn(8) == 0 {
					it.Key = alive[r.Intn(len(alive))].Key.Clone() // a duplicate key under a new ref
				}
				alive = append(alive, it)
				ref.Insert(it)
				tree.Insert(it)
			}
			queries := seededQueries(r, queriesPerStep, ckLen, rkLen)
			requireSame(t, ref, tree, queries)
			requireRebuilds(t, ref, tree, alive, opts, queries)
			checkInvariants(t, tree, false)
		}
		// Absent items are absent from both.
		ghost := randomItem(r, ckLen, rkLen, nextRef)
		if ref.Delete(ghost.Key, ghost.Ref) || tree.Delete(ghost.Key, ghost.Ref) || tree.UpdateConf(ghost.Key, ghost.Ref, 1) {
			t.Fatalf("width %v: an item never inserted was found", w)
		}
	}
}

// TestEntryBytes pins the layout's cost: a leaf entry is its key words plus a
// 16-byte payload, so 10 000 items with three-word keys may retain at most a
// quarter more than 10 000 × 40 bytes, plus the nodes themselves and the
// internal levels.
func TestEntryBytes(t *testing.T) {
	const n, ckLen, rkLen = 10000, 59, 110
	r := rand.New(rand.NewSource(1))
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(r, ckLen, rkLen, i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tree := BulkLoad(ckLen, rkLen, items, Options{})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if tree.stride != 3 {
		t.Fatalf("stride %d, want 3 words", tree.stride)
	}
	const entryBytes = 3*8 + int(unsafe.Sizeof(payload{}))
	if entryBytes != 40 {
		t.Fatalf("a three-word leaf entry costs %d bytes, want 40", entryBytes)
	}
	s := tree.Stats()
	nodes := s.LeafNodes + s.InternalNode
	// A node header is 80 bytes; an internal entry is its key and a pointer.
	budget := n*entryBytes*5/4 + nodes*int(unsafe.Sizeof(node{})+16) + (s.Entries-n)*(3*8+8)*5/4
	grown := int(after.HeapAlloc) - int(before.HeapAlloc)
	t.Logf("heap grew %d bytes for %d entries in %d nodes (budget %d; the 152-byte entry took %d)", grown, n, nodes, budget, n*152)
	if grown > budget {
		t.Errorf("BulkLoad of %d items retains %d bytes, budget %d", n, grown, budget)
	}
	runtime.KeepAlive(tree)
	runtime.KeepAlive(items)
}

// requireBruteForce holds both searches of the tree to a linear scan of items.
func requireBruteForce(t *testing.T, tree *Tree, items []Item, q bitkey.PatternKey) {
	t.Helper()
	bf := NewBruteForce(items)
	for _, premise := range []bool{true, false} {
		var got, want []int
		collect := func(into *[]int) Visit {
			return func(ref, _ int, _ float64, _ bitkey.Key) bool { *into = append(*into, ref); return true }
		}
		if premise {
			tree.SearchIntersect(q, collect(&got))
			bf.SearchIntersect(q, collect(&want))
		} else {
			tree.SearchConsequence(q, collect(&got))
			bf.SearchConsequence(q, collect(&want))
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("premise=%v: tree found %v, brute force %v", premise, got, want)
		}
	}
}

// FuzzTreeOps reads op bytes as a sequence of Insert, Delete and GrowKeys
// and checks the tree against BruteForce over the surviving items after
// every op. The seeds below run under plain go test.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x00\x10\x00\x11\x00\x12\x00\x13\x00\x14\x00\x15\x03\xff\x00\x16\x02\x00\x02\x00\x02\x00"))
	seq := make([]byte, 600)
	rand.New(rand.NewSource(9)).Read(seq)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ckLen, rkLen := 62, 126 // two GrowKeys from a word boundary in each part
		tree := New(ckLen, rkLen, Options{MaxEntries: 4})
		var alive []Item
		deleted := false
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for ref := 0; len(ops) > 0 && ref < 400; ref++ {
			switch op := next(); op % 4 {
			case 2:
				if len(alive) == 0 {
					continue
				}
				i := next() % len(alive)
				if !tree.Delete(alive[i].Key, alive[i].Ref) {
					t.Fatalf("Delete(ref %d) found nothing", alive[i].Ref)
				}
				alive = slices.Delete(alive, i, i+1)
				deleted = true
			case 3:
				if ckLen > 200 {
					continue
				}
				ckLen, rkLen = ckLen+op>>2&1, rkLen+op>>3&3
				tree.GrowKeys(ckLen, rkLen)
				for i := range alive {
					alive[i] = grownItem(alive[i], ckLen, rkLen)
				}
			default:
				k := bitkey.NewPatternKey(ckLen, rkLen)
				k.CK.Set(1 + next()%ckLen)
				for n := 1 + op>>2&3; n > 0; n-- {
					k.RK.Set(1 + next()%rkLen)
				}
				it := Item{Key: k, Conf: float64(op) / 255, Ref: ref}
				tree.Insert(it)
				alive = append(alive, it)
			}
			checkInvariants(t, tree, !deleted)
			q := bitkey.NewPatternKey(ckLen, rkLen)
			q.CK.Set(1 + next()%ckLen)
			q.CK.Set(1 + next()%ckLen)
			for i := 0; i < 6; i++ {
				q.RK.Set(1 + next()%rkLen)
			}
			requireBruteForce(t, tree, alive, q)
		}
	})
}
