package tpt

import "math/bits"

// The bulk-load order. A bulk load sorts its items by key — the consequence
// part first, then the premise part, each most significant bit first — with
// the reference as tie-break, so patterns with the same consequence offset
// pack into the same leaves. Read most significant word first, an entry's
// key is that number already (see the package comment), so the order is the
// lexicographic order of the words
//
//	ck[cw-1], …, ck[0], rk[rw-1], …, rk[0], ref
//
// as unsigned integers, the reference offset by 2⁶³ so that its unsigned
// order is its signed one. loadRows sorts by exactly that, without a
// comparison of two items: each item is one pointer-free row, and a
// most-significant-digit radix sort splits the rows on the highest bit at
// which they still differ. DESIGN.md, "What a first train costs", gives the
// argument that the result is the comparison order.

// rowExtra is what a row holds beyond the key: the offset reference.
const rowExtra = 1

// smallRows is the group size below which sortRows inserts instead of
// dealing: a deal pays for 65 buckets whatever the group's size.
const smallRows = 16

// loadRows lays the n items fill describes out as rows of stride+rowExtra
// words — the key in entry layout, then the offset reference —
// and returns them with their order: row order[j] is the j-th item in
// bulk-load order. The sort is stable: items equal in key and reference
// keep their index order.
func (t *Tree) loadRows(n int, fill Fill) (rows []uint64, order []int32) {
	s := t.stride
	w := s + rowExtra
	rows = make([]uint64, n*w)
	for i := 0; i < n; i++ {
		row := rows[i*w : (i+1)*w]
		row[s] = uint64(t.filled(fill, i, row[:s:s])) ^ 1<<63
	}
	// The columns in the order they are compared: the key's words from the
	// last to the first, then the reference.
	cols := make([]int, s+1)
	for c := range s {
		cols[c] = s - 1 - c
	}
	cols[s] = s
	idx := make([]int32, 2*n)
	order = idx[:n:n]
	for i := range order {
		order[i] = int32(i)
	}
	sortRows(rows, w, cols, 0, order, idx[n:])
	return rows, order
}

// rowRef reads a row's reference back from its word past the key.
func rowRef(w uint64) int32 { return int32(w ^ 1<<63) }

// sortRows sorts order, a group of indices of rows of w words, by the
// columns cols[c:], most significant first; the group's rows agree on every
// column before cols[c]. aux is scratch of order's length. Each step finds
// the first column where the rows differ and the highest bit there, top, at
// which any row differs from the first: above it they all agree. It deals
// the group, in order and stably, by the highest set bit of the column at or
// below top — 0 for none, 1 + its position otherwise, a digit that only
// grows with the column's value — and sorts every bucket the same way. A key
// part with one bit set, as every consequence key has, is sorted by one
// deal; a premise of a few regions by as many.
func sortRows(rows []uint64, w int, cols []int, c int, order, aux []int32) {
	if len(order) <= smallRows {
		insertRows(rows, w, cols[c:], order)
		return
	}
	var diff uint64
	for ; c < len(cols); c++ {
		k := cols[c]
		first := rows[int(order[0])*w+k]
		for _, i := range order[1:] {
			diff |= rows[int(i)*w+k] ^ first
		}
		if diff != 0 {
			break
		}
	}
	if diff == 0 {
		return // every row equal: already sorted
	}
	k, top := cols[c], 63-bits.LeadingZeros64(diff)
	low := uint64(2)<<top - 1 // the bits at or below top; 2<<63 wraps to 0
	var start [66]int
	for _, i := range order {
		start[65-bits.LeadingZeros64(rows[int(i)*w+k]&low)]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	next := start
	for _, i := range order {
		d := 64 - bits.LeadingZeros64(rows[int(i)*w+k]&low)
		aux[next[d]] = i
		next[d]++
	}
	copy(order, aux)
	for d := range top + 2 {
		if lo, hi := start[d], start[d+1]; hi-lo > 1 {
			sortRows(rows, w, cols, c, order[lo:hi], aux[lo:hi])
		}
	}
}

// insertRows sorts a small group of row indices by straight insertion,
// stably.
func insertRows(rows []uint64, w int, cols []int, order []int32) {
	for m := 1; m < len(order); m++ {
		i := order[m]
		x := rows[int(i)*w : int(i+1)*w]
		j := m
		for ; j > 0 && rowLess(x, rows[int(order[j-1])*w:int(order[j-1]+1)*w], cols); j-- {
			order[j] = order[j-1]
		}
		order[j] = i
	}
}

// rowLess reports whether row x sorts before row y on cols.
func rowLess(x, y []uint64, cols []int) bool {
	for _, k := range cols {
		if x[k] != y[k] {
			return x[k] < y[k]
		}
	}
	return false
}
