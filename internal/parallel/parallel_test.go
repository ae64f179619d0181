package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 57
		var hits [n]int32
		For(n, workers, func(i int) { atomic.AddInt32(&hits[i], 1) })
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, h)
			}
		}
	}
}

func TestForEmptyAndSerial(t *testing.T) {
	For(0, 8, func(int) { t.Fatal("called for n=0") })
	order := []int{}
	For(5, 1, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order %v", order)
		}
	}
}

func TestForRepanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("panic not propagated")
		}
	}()
	For(10, 4, func(i int) {
		if i == 7 {
			panic("boom")
		}
	})
}
