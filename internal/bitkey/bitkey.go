// Package bitkey implements the fixed-length bitmap keys and the bit
// algebra that the Trajectory Pattern Tree is built on.
//
// A trajectory pattern is symbolized as a pattern key: a consequence key
// (one bit per distinct consequence time offset) concatenated with a premise
// key (one bit per frequent region, ordered by time offset). The paper
// defines five operations over pattern keys — Union, Size, Contain,
// Difference, and Intersect — all of which reduce to bitwise operations.
// The TPT runs them over keys packed in its node slabs, through the word
// forms in words.go; the whole-key forms, which only tests call, live in
// the package's tests.
//
// Bit positions are numbered from the right starting at 1, matching the
// paper's convention (Property 1: a '1' at a higher position belongs to a
// frequent region whose time offset is closer to the consequence).
package bitkey

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Key is a fixed-length bitmap. The zero Key has length 0 and no bits set.
// Keys of different lengths are incomparable; the binary operations panic on
// a length mismatch because mixing key universes is always a caller bug.
type Key struct {
	n     int
	words []uint64
}

// New returns an all-zero key of n bits. n may be zero (the empty key).
func New(n int) Key {
	if n < 0 {
		panic("bitkey: negative length")
	}
	return Key{n: n, words: make([]uint64, (n+63)/64)}
}

// View returns an n-bit key over borrowed words: no copy, so writes through
// either are seen by both, and the view is only as stable as the words. The
// TPT hands out views of the keys it stores packed in per-node word slabs.
// words must hold exactly (n+63)/64 words with no bit set beyond n.
func View(n int, words []uint64) Key {
	if len(words) != (n+63)/64 {
		panic("bitkey: view words do not match the key length")
	}
	return Key{n: n, words: words}
}

// Words returns k's backing words, least significant first — borrowed, not
// copied. With View it lets a container keep many keys in one allocation.
func (k Key) Words() []uint64 { return k.words }

// Len returns the key length in bits.
func (k Key) Len() int { return k.n }

// Set sets the bit at 1-based position p (counted from the right).
func (k Key) Set(p int) {
	k.checkPos(p)
	k.words[(p-1)/64] |= 1 << uint((p-1)%64)
}

// Clear clears the bit at 1-based position p.
func (k Key) Clear(p int) {
	k.checkPos(p)
	k.words[(p-1)/64] &^= 1 << uint((p-1)%64)
}

// Bit reports whether the bit at 1-based position p is set.
func (k Key) Bit(p int) bool {
	k.checkPos(p)
	return k.words[(p-1)/64]&(1<<uint((p-1)%64)) != 0
}

func (k Key) checkPos(p int) {
	if p < 1 || p > k.n {
		panic(fmt.Sprintf("bitkey: position %d out of key length %d", p, k.n))
	}
}

func (k Key) checkLen(o Key) {
	if k.n != o.n {
		panic(fmt.Sprintf("bitkey: length mismatch %d != %d", k.n, o.n))
	}
}

// OrInPlace sets k = k | o without allocating. Used on the hot path of TPT
// internal-entry maintenance.
func (k Key) OrInPlace(o Key) {
	k.checkLen(o)
	OrWords(k.words, o.words)
}

// Size returns the number of '1's in k (the paper's Size operation).
func (k Key) Size() int { return SizeWords(k.words) }

// IsZero reports whether no bit is set.
func (k Key) IsZero() bool {
	for _, w := range k.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether k and o have identical length and bits.
func (k Key) Equal(o Key) bool {
	if k.n != o.n {
		return false
	}
	for i, w := range k.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// AndSize returns Size(k & o) without materializing the intermediate key.
func (k Key) AndSize(o Key) int {
	k.checkLen(o)
	s := 0
	for i, w := range o.words {
		s += bits.OnesCount64(k.words[i] & w)
	}
	return s
}

// Intersects reports whether k and o share at least one set bit.
func (k Key) Intersects(o Key) bool {
	k.checkLen(o)
	return IntersectWords(k.words, o.words)
}

// Ones returns the 1-based positions of all set bits in ascending order
// (right to left). Premise-similarity scoring walks these positions.
func (k Key) Ones() []int {
	out := make([]int, 0, k.Size())
	for i, w := range k.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, i*64+b+1)
			w &= w - 1
		}
	}
	return out
}

// Bytes returns the size in bytes a key of this length occupies when stored
// packed, as used by the TPT storage accounting in Figure 11(a).
func (k Key) Bytes() int { return (k.n + 7) / 8 }

// MarshalBinary implements encoding.BinaryMarshaler: a uvarint bit length
// followed by the packed little-endian bytes.
func (k Key) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 10+k.Bytes())
	buf = binary.AppendUvarint(buf, uint64(k.n))
	for i := 0; i < k.Bytes(); i++ {
		buf = append(buf, byte(k.words[i/8]>>(8*uint(i%8))))
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler for the
// MarshalBinary format.
func (k *Key) UnmarshalBinary(data []byte) error {
	n, read := binary.Uvarint(data)
	if read <= 0 {
		return fmt.Errorf("bitkey: corrupt length prefix")
	}
	// Reject non-minimal varints so every key has exactly one encoding
	// (decode∘encode is the identity on valid payloads).
	var canon [binary.MaxVarintLen64]byte
	if binary.PutUvarint(canon[:], n) != read {
		return fmt.Errorf("bitkey: non-canonical length prefix")
	}
	// Bound the declared length by what the payload can actually hold
	// before allocating: a hostile prefix must not overflow int or
	// balloon memory.
	if n > uint64(len(data))*8 {
		return fmt.Errorf("bitkey: declared length %d exceeds payload", n)
	}
	nk := New(int(n))
	if len(data)-read != nk.Bytes() {
		return fmt.Errorf("bitkey: key of %d bits needs %d bytes, have %d", n, nk.Bytes(), len(data)-read)
	}
	for i, b := range data[read:] {
		nk.words[i/8] |= uint64(b) << (8 * uint(i%8))
	}
	*k = nk
	return nil
}

// Grown returns a copy of k widened to n bits (existing bits preserved).
// It panics when n is smaller than the current length — keys never shrink.
// The miner grows every region's visitor bitmap together when new
// sub-trajectories arrive (§V-B dynamic data).
func (k Key) Grown(n int) Key {
	if n < k.n {
		panic(fmt.Sprintf("bitkey: cannot shrink key from %d to %d bits", k.n, n))
	}
	g := New(n)
	copy(g.words, k.words)
	return g
}
