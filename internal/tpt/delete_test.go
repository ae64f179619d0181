package tpt

import (
	"math/rand"
	"testing"

	"hpm/internal/bitkey"
)

// deleteItems hands items to one batch Delete.
func deleteItems(tree *Tree, items ...Item) int {
	return tree.Delete(len(items), func(i int, ck, rk []uint64) int {
		copy(ck, items[i].Key.CK.Words())
		copy(rk, items[i].Key.RK.Words())
		return items[i].Ref
	})
}

// TestDeleteSearchEquivalenceProperty interleaves random batch deletions
// with search checks against a brute-force survivor scan, for both the
// insert-built and the bulk-loaded shape. Each batch names one of its
// items twice, and the last one empties the tree. Deletion tolerates
// underflow by design (nothing repacks), so the minimum-fill bound is not
// checked; union-tightness, uniform leaf depth and the size counter must
// still hold, or searches go wrong.
func TestDeleteSearchEquivalenceProperty(t *testing.T) {
	const ckLen, rkLen, n = 10, 48, 400
	for _, bulk := range []bool{false, true} {
		r := rand.New(rand.NewSource(7))
		items := make([]Item, n)
		for i := range items {
			items[i] = randomItem(r, ckLen, rkLen, i)
		}
		var tree *Tree
		if bulk {
			tree = BulkLoad(ckLen, rkLen, items, Options{MaxEntries: 8})
		} else {
			tree = New(ckLen, rkLen, Options{MaxEntries: 8})
			for _, it := range items {
				tree.Insert(it)
			}
		}
		alive := append([]Item(nil), items...)
		for len(alive) > 0 {
			// Delete a random batch, then probe with random queries.
			var batch []Item
			for k := 0; k < 20 && len(alive) > 0; k++ {
				i := r.Intn(len(alive))
				batch = append(batch, alive[i])
				alive = append(alive[:i], alive[i+1:]...)
			}
			if got := deleteItems(tree, append(batch, batch[0])...); got != len(batch) {
				t.Fatalf("bulk=%v: a batch of %d distinct items deleted %d", bulk, len(batch), got)
			}
			if deleteItems(tree, batch[0]) != 0 {
				t.Fatalf("bulk=%v: double Delete(ref %d) succeeded", bulk, batch[0].Ref)
			}
			checkInvariants(t, tree, false)
			if tree.Len() != len(alive) {
				t.Fatalf("bulk=%v: Len() = %d, want %d", bulk, tree.Len(), len(alive))
			}
			for q := 0; q < 10; q++ {
				qk := randomQuery(r, ckLen, rkLen)
				if got, want := collectIntersect(tree, qk), bruteIntersect(alive, qk); !equalInts(got, want) {
					t.Fatalf("bulk=%v: intersect mismatch after deletes: got %v want %v", bulk, got, want)
				}
				if got, want := collectConsequence(tree, qk), bruteConsequence(alive, qk); !equalInts(got, want) {
					t.Fatalf("bulk=%v: consequence mismatch after deletes: got %v want %v", bulk, got, want)
				}
			}
		}
		if tree.Len() != 0 || tree.height != 1 {
			t.Fatalf("bulk=%v: emptied tree has len %d height %d", bulk, tree.Len(), tree.height)
		}
	}
}

// TestGrowKeys widens a populated tree and checks searches behave as if
// every item had been built at the wider size from the start.
func TestGrowKeys(t *testing.T) {
	const ckLen, rkLen, n = 5, 20, 200
	r := rand.New(rand.NewSource(3))
	tree := New(ckLen, rkLen, Options{MaxEntries: 6})
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(r, ckLen, rkLen, i)
		tree.Insert(items[i])
	}
	const ckWide, rkWide = 9, 33
	tree.GrowKeys(ckWide, rkWide)
	checkInvariants(t, tree, true)

	// Grown shadow copies for the brute-force oracle.
	wide := make([]Item, n)
	for i, it := range items {
		wide[i] = Item{Key: bitkey.PatternKey{CK: it.Key.CK.Grown(ckWide), RK: it.Key.RK.Grown(rkWide)}, Conf: it.Conf, Ref: it.Ref}
	}
	// New items may use the new high bits.
	for i := 0; i < 50; i++ {
		it := randomItem(r, ckWide, rkWide, n+i)
		tree.Insert(it)
		wide = append(wide, it)
	}
	checkInvariants(t, tree, true)
	for q := 0; q < 40; q++ {
		qk := randomQuery(r, ckWide, rkWide)
		if got, want := collectIntersect(tree, qk), bruteIntersect(wide, qk); !equalInts(got, want) {
			t.Fatalf("intersect mismatch after GrowKeys: got %v want %v", got, want)
		}
		if got, want := collectConsequence(tree, qk), bruteConsequence(wide, qk); !equalInts(got, want) {
			t.Fatalf("consequence mismatch after GrowKeys: got %v want %v", got, want)
		}
	}
	// Deleting an old item by its grown key must still work.
	if deleteItems(tree, wide[0]) != 1 {
		t.Fatal("Delete by grown key failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GrowKeys shrink did not panic")
		}
	}()
	tree.GrowKeys(ckLen, rkLen)
}
