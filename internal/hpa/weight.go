// Package hpa implements §VI of the paper: the Hybrid Prediction Algorithm.
//
// Near-time queries run Forward Query Processing (FQP) — retrieve the
// patterns whose premise intersects the object's recent frequent regions
// and whose consequence offset equals the query offset, rank them by
// premise similarity × confidence, and return the top-k consequence
// centers. Distant-time queries run Backward Query Processing (BQP) —
// relax the premise constraint, admit every pattern whose consequence
// offset falls in a widening window around the query time, and rank by a
// penalized premise similarity plus a consequence-time similarity. When no
// pattern qualifies, the motion function answers.
package hpa

import (
	"fmt"
	"sync/atomic"

	"hpm/internal/bitkey"
)

// WeightFunc selects how position weights ω_i are assigned to the '1's of a
// premise key (§VI-A). Later positions — frequent regions closer to the
// consequence time — always weigh more; the functions differ in how sharply.
type WeightFunc int

// The four weight functions of §VI-A. The paper reports the linear and
// quadratic variants predicting best.
const (
	WeightLinear WeightFunc = iota
	WeightQuadratic
	WeightExponential
	WeightFactorial
)

// String implements fmt.Stringer.
func (w WeightFunc) String() string {
	switch w {
	case WeightLinear:
		return "linear"
	case WeightQuadratic:
		return "quadratic"
	case WeightExponential:
		return "exponential"
	case WeightFactorial:
		return "factorial"
	default:
		return fmt.Sprintf("WeightFunc(%d)", int(w))
	}
}

// raw returns the unnormalized weight of ordinal i (1-based).
func (w WeightFunc) raw(i int) float64 {
	switch w {
	case WeightLinear:
		return float64(i)
	case WeightQuadratic:
		return float64(i) * float64(i)
	case WeightExponential:
		// 2^i; ordinals are small (premise sizes), so this stays finite.
		v := 1.0
		for k := 0; k < i; k++ {
			v *= 2
		}
		return v
	case WeightFactorial:
		v := 1.0
		for k := 2; k <= i; k++ {
			v *= float64(k)
		}
		return v
	default:
		panic(fmt.Sprintf("hpa: unknown weight function %d", int(w)))
	}
}

// weightMemoMax bounds the premise lengths whose weight vectors are
// memoized. Premises are capped far below this in practice (the Apriori
// stage limits pattern length); longer requests fall through to a fresh
// computation.
const weightMemoMax = 64

// weightMemo caches Weights(size) per (function, size). Entries are
// published once with a CAS and then shared read-only by every query, so
// premise scoring never allocates in steady state. Concurrent first calls
// may both compute; whichever CAS wins is the vector all callers see —
// the computation is deterministic, so the loser's copy is identical.
var weightMemo [4][weightMemoMax + 1]atomic.Pointer[[]float64]

// Weights returns the normalized weights ω_1..ω_size, which sum to 1 so the
// premise similarity of an exact premise match is exactly 1. The returned
// slice is memoized and shared across callers — treat it as read-only.
func (w WeightFunc) Weights(size int) []float64 {
	if size <= 0 {
		return nil
	}
	if int(w) < 0 || int(w) >= len(weightMemo) || size > weightMemoMax {
		return w.computeWeights(size)
	}
	slot := &weightMemo[w][size]
	if p := slot.Load(); p != nil {
		return *p
	}
	ws := w.computeWeights(size)
	slot.CompareAndSwap(nil, &ws)
	return *slot.Load()
}

// computeWeights builds the normalized weight vector afresh.
func (w WeightFunc) computeWeights(size int) []float64 {
	out := make([]float64, size)
	var sum float64
	for i := 1; i <= size; i++ {
		out[i-1] = w.raw(i)
		sum += out[i-1]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// PremiseSimilarity computes Equation 1: the sum of the weights of the '1's
// of the pattern premise key rk that also appear in the query premise key
// rkq. Weights attach to the ordinals of rk's own '1's counted from the
// right (Property 1: higher ordinal = closer to the consequence time).
func PremiseSimilarity(rk, rkq bitkey.Key, w WeightFunc) float64 {
	// Fast paths: no overlap scores 0, and a fully-matched premise scores 1
	// under any normalized weighting (single-region premises always fall
	// here).
	shared := rk.AndSize(rkq)
	if shared == 0 {
		return 0
	}
	size := rk.Size()
	if shared == size {
		return 1
	}
	// Walk rk's '1's in place, lowest first: i is the ordinal of the bit.
	weights := w.Weights(size)
	q := rkq.Words()
	var s float64
	i := 0
	for wi, word := range rk.Words() {
		for ; word != 0; word &= word - 1 {
			if q[wi]&(word&-word) != 0 {
				s += weights[i]
			}
			i++
		}
	}
	return s
}
