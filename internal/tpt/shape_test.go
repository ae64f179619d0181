package tpt

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"hpm/internal/bitkey"
)

// fillFrom describes items[i] as item i, its ref the index.
func fillFrom(items []Item) Fill {
	return func(i int, ck, rk []uint64) int {
		copy(ck, items[i].Key.CK.Words())
		copy(rk, items[i].Key.RK.Words())
		return i
	}
}

// requireRebuilds pins the builder to the live tree: build over the tree's
// own shape and the surviving items must equal the reference — and so the
// tree — node for node and answer for answer, and the same shape with refs
// renumbered to rank, carried through its encoding the way a saved model
// carries it, must come back through Build as the same arrangement of the
// same keys.
func requireRebuilds(t *testing.T, ref *refTree, tree *Tree, alive []Item, opts Options, queries []bitkey.PatternKey) {
	t.Helper()
	sh := tree.Shape()
	byRef := make(map[int32]Item, len(alive))
	for _, it := range alive {
		byRef[int32(it.Ref)] = it
	}
	again := New(tree.ckLen, tree.rkLen, opts)
	again.build(len(sh.Refs), sh.Counts, func(j int, key []uint64) int32 {
		it := byRef[sh.Refs[j]]
		copy(key, it.Key.RK.Words())
		copy(key[again.rw:], it.Key.CK.Words())
		return int32(it.Ref)
	})
	requireSame(t, ref, again, queries)
	if got := again.Shape(); !reflect.DeepEqual(got, sh) {
		t.Fatalf("the rebuilt tree's shape differs from the one it was built from")
	}

	ranked := slices.Clone(alive)
	slices.SortFunc(ranked, func(a, b Item) int { return a.Ref - b.Ref })
	rank := make(map[int32]int32, len(ranked))
	for i, it := range ranked {
		rank[int32(it.Ref)] = int32(i)
	}
	saved := Shape{Refs: make([]int32, len(sh.Refs)), Counts: sh.Counts}
	for i, r := range sh.Refs {
		saved.Refs[i] = rank[r]
	}
	back, err := DecodeShape(saved.AppendBinary(nil))
	if err != nil {
		t.Fatalf("a live tree's shape does not decode: %v", err)
	}
	if len(alive) > 0 && !reflect.DeepEqual(back, saved) {
		t.Fatal("shape changed through its encoding")
	}
	loaded, err := Build(tree.ckLen, tree.rkLen, len(ranked), &back, opts, fillFrom(ranked))
	if err != nil {
		t.Fatalf("a live tree's shape does not build: %v", err)
	}
	checkInvariants(t, loaded, false)
	var a, b []Item
	again.All(func(it Item) bool { a = append(a, it); return true })
	loaded.All(func(it Item) bool { b = append(b, it); return true })
	if len(a) != len(b) || loaded.height != again.height || !reflect.DeepEqual(loaded.Shape().Counts, sh.Counts) {
		t.Fatalf("loaded tree: %d items, height %d; live tree %d and %d", len(b), loaded.height, len(a), again.height)
	}
	for i := range a {
		if int(rank[int32(a[i].Ref)]) != b[i].Ref || !keyEqual(a[i].Key, b[i].Key) {
			t.Fatalf("leaf position %d: loaded ref %d key %v, live ref %d (rank %d) key %v",
				i, b[i].Ref, b[i].Key, a[i].Ref, rank[int32(a[i].Ref)], a[i].Key)
		}
	}
}

// TestBuildRejectsBadShapes: every way a shape can fail to arrange the
// items is an error from Build, never a panic and never a tree.
func TestBuildRejectsBadShapes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	items := make([]Item, 40)
	for i := range items {
		items[i] = randomItem(r, 36, 37, i)
	}
	opts := Options{MaxEntries: 8}
	good := BulkLoad(36, 37, items, opts).Shape()
	if _, err := Build(36, 37, len(items), &good, opts, fillFrom(items)); err != nil {
		t.Fatalf("a bulk load's own shape: %v", err)
	}
	if tree, err := Build(36, 37, 0, &Shape{}, opts, fillFrom(nil)); err != nil || tree.Len() != 0 || tree.height != 1 {
		t.Fatalf("the empty shape: %v", err)
	}
	clone := func() Shape {
		sh := Shape{Refs: slices.Clone(good.Refs)}
		for _, c := range good.Counts {
			sh.Counts = append(sh.Counts, slices.Clone(c))
		}
		return sh
	}
	for name, corrupt := range map[string]func(sh *Shape){
		"a ref twice":          func(sh *Shape) { sh.Refs[3] = sh.Refs[4] },
		"a ref out of range":   func(sh *Shape) { sh.Refs[0] = int32(len(items)) },
		"a negative ref":       func(sh *Shape) { sh.Refs[0] = -1 },
		"an item short":        func(sh *Shape) { sh.Refs = sh.Refs[1:] },
		"an empty node":        func(sh *Shape) { sh.Counts[0][0] += sh.Counts[0][1]; sh.Counts[0][1] = 0 },
		"an overfull node":     func(sh *Shape) { sh.Counts[0][0] += sh.Counts[0][1] - 1; sh.Counts[0][1] = 1 },
		"a leaf entry too few": func(sh *Shape) { sh.Counts[0][0]-- },
		"a child too many":     func(sh *Shape) { sh.Counts[1][0]++ },
		"no levels":            func(sh *Shape) { sh.Counts = nil },
		"two roots":            func(sh *Shape) { sh.Counts = sh.Counts[:len(sh.Counts)-1] },
		"a root over a root":   func(sh *Shape) { sh.Counts = append(sh.Counts, []int32{1}, []int32{2}) },
		"too many levels": func(sh *Shape) {
			for len(sh.Counts) <= maxHeight {
				sh.Counts = append(sh.Counts, []int32{1})
			}
		},
	} {
		sh := clone()
		corrupt(&sh)
		if tree, err := Build(36, 37, len(items), &sh, opts, fillFrom(items)); err == nil {
			t.Errorf("%s: built a tree of %d items", name, tree.Len())
		}
	}
	if _, err := Build(36, 37, 1, &Shape{Refs: []int32{0}}, opts, fillFrom(items)); err == nil {
		t.Error("one item and no levels: built a tree")
	}
}

// FuzzTreeShape feeds arbitrary bytes to the shape decoder and whatever
// decodes to the builder. Neither may panic or allocate beyond a multiple of
// the input, and a tree that comes back must hold every invariant, each item
// once, and answer like a linear scan.
func FuzzTreeShape(f *testing.F) {
	const ckLen, rkLen = 59, 110
	opts := Options{MaxEntries: 4}
	// Every fifth item repeats an earlier key, so the loads below put equal
	// keys next to each other and order them by ref.
	itemsFor := func(n int) []Item {
		r := rand.New(rand.NewSource(int64(n)))
		items := make([]Item, n)
		for i := range items {
			items[i] = randomItem(r, ckLen, rkLen, i)
			if i > 0 && i%5 == 0 {
				items[i].Key = items[r.Intn(i)].Key
			}
		}
		return items
	}
	f.Add(BulkLoad(ckLen, rkLen, itemsFor(300), opts).Shape().AppendBinary(nil)) // three levels
	tree := BulkLoad(ckLen, rkLen, itemsFor(100), opts)
	packed := tree.Shape().AppendBinary(nil)
	var hollowed []Item
	for ref := 0; ref < 100; ref += 3 { // hollow it out: underfull nodes, a lower root
		hollowed = append(hollowed, itemsFor(100)[ref])
	}
	deleteItems(tree, hollowed...)
	sh := tree.Shape()
	for i, ref := range sh.Refs {
		sh.Refs[i] = ref - (ref+2)/3 // rank among the survivors
	}
	hollow := sh.AppendBinary(nil)
	for _, seed := range [][]byte{packed, hollow} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		flipped := slices.Clone(seed)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte{})
	f.Add(Shape{}.AppendBinary(nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x07, 0}) // 2^31-1 refs, none present
	f.Add([]byte{1, 0, 64, 1, 1})                  // 64 levels claimed, one present

	f.Fuzz(func(t *testing.T, data []byte) {
		probe, err := DecodeShape(data)
		if err != nil || len(probe.Refs) > 1<<16 {
			return
		}
		items := itemsFor(len(probe.Refs))
		// The same items with their refs reversed, so not in index order,
		// bulk-load in the comparison order.
		reversed := slices.Clone(items)
		for i := range reversed {
			reversed[i].Ref = len(items) - 1 - i
		}
		requireLoadOrder(t, ckLen, rkLen, reversed)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sh, _ := DecodeShape(data)
		tree, err := Build(ckLen, rkLen, len(items), &sh, opts, fillFrom(items))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+512*uint64(len(data)) {
			t.Fatalf("%d input bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		checkInvariants(t, tree, false)
		var refs []int
		tree.All(func(it Item) bool { refs = append(refs, it.Ref); return true })
		slices.Sort(refs)
		for i, ref := range refs {
			if ref != i {
				t.Fatalf("ref %d is not in the tree exactly once", i)
			}
		}
		if len(refs) != len(items) {
			t.Fatalf("%d of %d items in the tree", len(refs), len(items))
		}
		r := rand.New(rand.NewSource(3))
		for _, q := range seededQueries(r, 64, ckLen, rkLen) {
			requireBruteForce(t, tree, items, q)
		}
	})
}
