package tpt

import (
	"math/rand"
	"testing"

	"hpm/internal/bitkey"
)

// TestDeleteSearchEquivalenceProperty interleaves random deletions with
// search checks against a brute-force survivor scan, for both the insert-
// built and the bulk-loaded shape. Deletion tolerates underflow by design
// (the batch-rebuild backstop restores packing), so the minimum-fill bound
// is not checked; union-tightness, uniform leaf depth and the size counter
// must still hold, or searches go wrong.
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
			for k := 0; k < 20 && len(alive) > 0; k++ {
				i := r.Intn(len(alive))
				it := alive[i]
				if !tree.Delete(it.Key, it.Ref) {
					t.Fatalf("bulk=%v: Delete(ref %d) found nothing", bulk, it.Ref)
				}
				if tree.Delete(it.Key, it.Ref) {
					t.Fatalf("bulk=%v: double Delete(ref %d) succeeded", bulk, it.Ref)
				}
				alive = append(alive[:i], alive[i+1:]...)
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
		if tree.Len() != 0 || tree.Height() != 1 {
			t.Fatalf("bulk=%v: emptied tree has len %d height %d", bulk, tree.Len(), tree.Height())
		}
	}
}

func TestUpdateConf(t *testing.T) {
	const ckLen, rkLen = 6, 24
	r := rand.New(rand.NewSource(11))
	tree := New(ckLen, rkLen, Options{MaxEntries: 4})
	items := make([]Item, 60)
	for i := range items {
		items[i] = randomItem(r, ckLen, rkLen, i)
		tree.Insert(items[i])
	}
	for _, it := range items {
		if !tree.UpdateConf(it.Key, it.Ref, float64(it.Ref)) {
			t.Fatalf("UpdateConf(ref %d) found nothing", it.Ref)
		}
	}
	seen := 0
	tree.All(func(it Item) bool {
		seen++
		if it.Conf != float64(it.Ref) {
			t.Fatalf("ref %d conf %g, want %g", it.Ref, it.Conf, float64(it.Ref))
		}
		return true
	})
	if seen != len(items) {
		t.Fatalf("All visited %d items, want %d", seen, len(items))
	}
	missing := randomItem(r, ckLen, rkLen, 999)
	if tree.UpdateConf(missing.Key, 999, 0.5) {
		t.Fatal("UpdateConf on an absent item succeeded")
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
	if !tree.Delete(wide[0].Key, wide[0].Ref) {
		t.Fatal("Delete by grown key failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GrowKeys shrink did not panic")
		}
	}()
	tree.GrowKeys(ckLen, rkLen)
}
