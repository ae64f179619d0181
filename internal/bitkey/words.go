package bitkey

import "math/bits"

// Word-slice forms of the key algebra, for containers that keep keys packed
// in a shared []uint64 instead of one Key each. a and b must hold the same
// number of words; the Key methods check lengths and then come here, other
// callers (the TPT over its node slabs) hold that by construction.

// SetWords sets the bit at 1-based position p, as Key.Set counts it, in a
// key's words.
func SetWords(w []uint64, p int) { w[(p-1)/64] |= 1 << uint((p-1)%64) }

// OrWords sets dst |= src.
func OrWords(dst, src []uint64) {
	dst = dst[:len(src)]
	for i, w := range src {
		dst[i] |= w
	}
}

// SizeWords returns the number of '1's in a.
func SizeWords(a []uint64) int {
	s := 0
	for _, w := range a {
		s += bits.OnesCount64(w)
	}
	return s
}

// ContainsWords reports whether every '1' of b is also set in a.
func ContainsWords(a, b []uint64) bool {
	a = a[:len(b)]
	for i, w := range b {
		if a[i]&w != w {
			return false
		}
	}
	return true
}

// IntersectWords reports whether a and b share a '1'.
func IntersectWords(a, b []uint64) bool {
	a = a[:len(b)]
	for i, w := range b {
		if a[i]&w != 0 {
			return true
		}
	}
	return false
}

// SharedBitWords returns the 0-based position of the lowest '1' a and b
// share, or -1 when they share none. A pattern's consequence key is the
// single bit 2^timeID (§V-A), so against a query's consequence key this is
// both the intersection test and the matching entry's time id.
func SharedBitWords(a, b []uint64) int {
	a = a[:len(b)]
	for i, w := range b {
		if s := a[i] & w; s != 0 {
			return i*64 + bits.TrailingZeros64(s)
		}
	}
	return -1
}

// DifferenceWords returns the number of '1's of a that are not in b.
func DifferenceWords(a, b []uint64) int {
	b = b[:len(a)]
	s := 0
	for i, w := range a {
		s += bits.OnesCount64(w &^ b[i])
	}
	return s
}
