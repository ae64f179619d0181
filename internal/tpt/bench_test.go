package tpt

import (
	"fmt"
	"math/rand"
	"testing"
)

// Micro-benchmarks for the index operations underlying Figure 11.

func benchItems(n int) ([]Item, []Item) {
	r := rand.New(rand.NewSource(1))
	items := make([]Item, n)
	for i := range items {
		items[i] = randomItem(r, 100, 800, i)
	}
	queries := make([]Item, 256)
	for i := range queries {
		queries[i] = randomItem(r, 100, 800, i)
	}
	return items, queries
}

func BenchmarkInsert10K(b *testing.B) {
	items, _ := benchItems(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(100, 800, Options{})
		for _, it := range items {
			t.Insert(it)
		}
	}
}

func BenchmarkBulkLoad10K(b *testing.B) {
	items, _ := benchItems(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BulkLoad(100, 800, items, Options{})
	}
}

// BenchmarkBulkLoad is the bulk load at the fleet's shape — one consequence
// word and two premise words, 1 500 to 13 000 patterns per object — and at
// 100 000 items, the size the deleted parallel run/merge sort was last
// measured against (DESIGN.md "What one recovery costs").
func BenchmarkBulkLoad(b *testing.B) {
	for _, n := range []int{1500, 13000, 100000} {
		r := rand.New(rand.NewSource(1))
		items := make([]Item, n)
		for i := range items {
			items[i] = randomItem(r, 59, 110, i)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BulkLoad(59, 110, items, Options{})
			}
		})
	}
}

func BenchmarkSearchIntersect10K(b *testing.B) {
	items, queries := benchItems(10000)
	t := BulkLoad(100, 800, items, Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		t.SearchIntersect(q.Key, visitAll)
	}
}

func BenchmarkBruteForce10K(b *testing.B) {
	items, queries := benchItems(10000)
	bf := NewBruteForce(items)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		bf.SearchIntersect(q.Key, visitAll)
	}
}
