package tpt

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"hpm/internal/bitkey"
)

// itemCmp is the bulk-load order as a comparison of two items: the
// consequence part, then the premise part, most significant bits first,
// with the reference as tie-break. It is the oracle Build's radix order is
// held to.
func itemCmp(a, b Item) int {
	return cmp.Or(
		compareWords(a.Key.CK.Words(), b.Key.CK.Words()),
		compareWords(a.Key.RK.Words(), b.Key.RK.Words()),
		cmp.Compare(a.Ref, b.Ref))
}

// requireLoadOrder holds a bulk load's leaves, read left to right, to
// slices.SortFunc over itemCmp on the same items, item for item: key and
// reference. The refs must be distinct, so that the comparison order is
// total.
func requireLoadOrder(t *testing.T, ckLen, rkLen int, items []Item) {
	t.Helper()
	want := slices.Clone(items)
	slices.SortFunc(want, itemCmp)
	var got []Item
	BulkLoad(ckLen, rkLen, items, Options{}).All(func(it Item) bool { got = append(got, it); return true })
	if len(got) != len(want) {
		t.Fatalf("the load holds %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Ref != want[i].Ref || !keyEqual(got[i].Key, want[i].Key) {
			t.Fatalf("position %d of %d: ref %d key %v, comparison order ref %d key %v",
				i, len(want), got[i].Ref, got[i].Key, want[i].Ref, want[i].Key)
		}
	}
}

// orderItems draws n items over ckLen and rkLen bits: most shaped like
// pattern keys (one consequence bit, a few premise bits), some dense in
// both parts, every fifth a copy of an earlier key, and refs a shuffle of
// distinct values, negative ones included, so none is in index order.
func orderItems(r *rand.Rand, n, ckLen, rkLen int) []Item {
	items := make([]Item, n)
	for i := range items {
		switch {
		case i > 0 && i%5 == 0:
			items[i] = randomItem(r, ckLen, rkLen, 0)
			items[i].Key = items[r.Intn(i)].Key
		case r.Intn(4) == 0:
			k := bitkey.NewPatternKey(ckLen, rkLen)
			for _, part := range []bitkey.Key{k.CK, k.RK} {
				for b := 1; b <= part.Len(); b++ {
					if r.Intn(2) == 0 {
						part.Set(b)
					}
				}
			}
			items[i] = Item{Key: k, Conf: r.Float64()}
		default:
			items[i] = randomItem(r, ckLen, rkLen, 0)
		}
	}
	for i, ref := range r.Perm(n) {
		items[i].Ref = ref - n/3
	}
	return items
}

// TestLoadOrderMatchesComparison: the radix order is the comparison order,
// for key parts of one to three words each and loads from empty to larger
// than the fleet's.
func TestLoadOrderMatchesComparison(t *testing.T) {
	widths := [][2]int{{1, 1}, {36, 37}, {64, 64}, {65, 130}, {59, 110}, {100, 190}, {192, 129}, {150, 64}}
	for _, w := range widths {
		for _, n := range []int{0, 1, 2, 15, 16, 17, 100, 1000, 5000} {
			r := rand.New(rand.NewSource(int64(w[0]*7919 + w[1]*31 + n)))
			requireLoadOrder(t, w[0], w[1], orderItems(r, n, w[0], w[1]))
		}
	}
}

// compareWords orders a and b by content, most significant word first.
func compareWords(a, b []uint64) int {
	b = b[:len(a)]
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
