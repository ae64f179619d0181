package bitkey

import "fmt"

// The paper's key algebra over whole keys (§V-A: Union, Size, Contain,
// Difference, Intersect) and the parsers of its binary notation, which only
// tests call. The TPT and the miner run the word forms in words.go, and the
// key forms of Contain, Difference and the in-place Union reach them, so
// the tests that hold the algebra to the paper's tables and laws exercise
// those word forms too.

// FromPositions returns an n-bit key with the given 1-based positions set.
func FromPositions(n int, positions ...int) Key {
	k := New(n)
	for _, p := range positions {
		k.Set(p)
	}
	return k
}

// Clone returns an independent copy of k.
func (k Key) Clone() Key {
	c := Key{n: k.n, words: make([]uint64, len(k.words))}
	copy(c.words, k.words)
	return c
}

// Or returns k | o as a new key.
func (k Key) Or(o Key) Key {
	k.checkLen(o)
	r := k.Clone()
	for i, w := range o.words {
		r.words[i] |= w
	}
	return r
}

// And returns k & o as a new key.
func (k Key) And(o Key) Key {
	k.checkLen(o)
	r := k.Clone()
	for i, w := range o.words {
		r.words[i] &= w
	}
	return r
}

// Contains reports whether every bit of o is also set in k, i.e.
// k & o == o (the paper's Contain operation).
func (k Key) Contains(o Key) bool {
	k.checkLen(o)
	return ContainsWords(k.words, o.words)
}

// Difference returns Size(k XOR (k AND o)): the number of '1's in k that are
// not in o (the paper's Difference operation). It is asymmetric by design —
// Difference(pk, e) measures how many new bits inserting pk into entry e
// would switch on.
func (k Key) Difference(o Key) int {
	k.checkLen(o)
	return DifferenceWords(k.words, o.words)
}

// Parse builds a key from a binary string such as "00011" (most significant
// bit first). It returns an error on any character other than '0' or '1'.
func Parse(s string) (Key, error) {
	k := New(len(s))
	for i, c := range s {
		switch c {
		case '1':
			k.Set(len(s) - i)
		case '0':
		default:
			return Key{}, fmt.Errorf("bitkey: invalid character %q in %q", c, s)
		}
	}
	return k, nil
}

// MustParse is Parse that panics on error; intended for tests and constants.
func MustParse(s string) Key {
	k, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return k
}

// Clone returns an independent copy of p.
func (p PatternKey) Clone() PatternKey {
	return PatternKey{CK: p.CK.Clone(), RK: p.RK.Clone()}
}

// Union returns the bitwise OR of p and q (the paper's Union operation over
// the concatenated keys). Internal TPT entries are unions of their subtree.
func (p PatternKey) Union(q PatternKey) PatternKey {
	return PatternKey{CK: p.CK.Or(q.CK), RK: p.RK.Or(q.RK)}
}

// UnionInPlace sets p = p | q without allocating.
func (p PatternKey) UnionInPlace(q PatternKey) {
	p.CK.OrInPlace(q.CK)
	p.RK.OrInPlace(q.RK)
}

// Size returns the number of '1's across the concatenated key.
func (p PatternKey) Size() int { return p.CK.Size() + p.RK.Size() }

// Contains reports whether p & q == q over the concatenated key.
func (p PatternKey) Contains(q PatternKey) bool {
	return p.CK.Contains(q.CK) && p.RK.Contains(q.RK)
}

// Difference returns Size(p XOR (p AND q)) over the concatenated key: how
// many '1's of p are absent from q.
func (p PatternKey) Difference(q PatternKey) int {
	return p.CK.Difference(q.CK) + p.RK.Difference(q.RK)
}

// IntersectsConsequence reports whether only the consequence keys share a
// '1'. Backward Query Processing "gives up the constraint for the premise
// key" (§VI-C) and descends the tree on this weaker predicate.
func (p PatternKey) IntersectsConsequence(q PatternKey) bool {
	return p.CK.Intersects(q.CK)
}

// Equal reports whether both parts are identical.
func (p PatternKey) Equal(q PatternKey) bool {
	return p.CK.Equal(q.CK) && p.RK.Equal(q.RK)
}

// Bytes returns the packed storage footprint of the concatenated key.
func (p PatternKey) Bytes() int { return (p.CK.Len() + p.RK.Len() + 7) / 8 }

// String renders the concatenated key, consequence part first, matching the
// paper's Table III (e.g. "0100001").
func (p PatternKey) String() string { return p.CK.String() + p.RK.String() }

// ParsePattern splits a concatenated binary string into a PatternKey given
// the consequence-key length.
func ParsePattern(s string, ckLen int) (PatternKey, error) {
	if ckLen < 0 || ckLen > len(s) {
		return PatternKey{}, fmt.Errorf("bitkey: consequence length %d out of range for %q", ckLen, s)
	}
	ck, err := Parse(s[:ckLen])
	if err != nil {
		return PatternKey{}, err
	}
	rk, err := Parse(s[ckLen:])
	if err != nil {
		return PatternKey{}, err
	}
	return PatternKey{CK: ck, RK: rk}, nil
}

// MustParsePattern is ParsePattern that panics on error.
func MustParsePattern(s string, ckLen int) PatternKey {
	p, err := ParsePattern(s, ckLen)
	if err != nil {
		panic(err)
	}
	return p
}
