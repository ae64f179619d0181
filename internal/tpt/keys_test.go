package tpt

import (
	"slices"

	"hpm/internal/bitkey"
)

// The paper's operations over whole pattern keys (§V-A), which the
// reference tree and the brute-force oracles are written in. The tree runs
// the same operations over the word forms of keys packed in its slabs.

func keyClone(p bitkey.PatternKey) bitkey.PatternKey {
	return bitkey.PatternKey{
		CK: bitkey.View(p.CK.Len(), slices.Clone(p.CK.Words())),
		RK: bitkey.View(p.RK.Len(), slices.Clone(p.RK.Words())),
	}
}

// keyUnion is the paper's Union: p | q over the concatenated key.
func keyUnion(p, q bitkey.PatternKey) bitkey.PatternKey {
	u := keyClone(p)
	keyUnionInPlace(u, q)
	return u
}

func keyUnionInPlace(p, q bitkey.PatternKey) {
	p.CK.OrInPlace(q.CK)
	p.RK.OrInPlace(q.RK)
}

// keySize is the paper's Size: the '1's across the concatenated key.
func keySize(p bitkey.PatternKey) int { return p.CK.Size() + p.RK.Size() }

// keyContains is the paper's Contain: p & q == q.
func keyContains(p, q bitkey.PatternKey) bool {
	return bitkey.ContainsWords(p.CK.Words(), q.CK.Words()) && bitkey.ContainsWords(p.RK.Words(), q.RK.Words())
}

// keyDifference is the paper's Difference: how many '1's of p q lacks.
func keyDifference(p, q bitkey.PatternKey) int {
	return bitkey.DifferenceWords(p.CK.Words(), q.CK.Words()) + bitkey.DifferenceWords(p.RK.Words(), q.RK.Words())
}

func keyEqual(p, q bitkey.PatternKey) bool { return p.CK.Equal(q.CK) && p.RK.Equal(q.RK) }

// keyIntersectsConsequence is BQP's predicate: the consequence keys share a
// '1', the premise keys are not looked at (§VI-C).
func keyIntersectsConsequence(p, q bitkey.PatternKey) bool { return p.CK.Intersects(q.CK) }

// mustParsePattern reads a key in the paper's notation, the consequence
// part's ckLen bits first, most significant bit first (Table III).
func mustParsePattern(s string, ckLen int) bitkey.PatternKey {
	return bitkey.PatternKey{CK: mustParseKey(s[:ckLen]), RK: mustParseKey(s[ckLen:])}
}

func mustParseKey(s string) bitkey.Key {
	k := bitkey.New(len(s))
	for i, c := range s {
		switch c {
		case '1':
			k.Set(len(s) - i)
		case '0':
		default:
			panic("tpt: bad key " + s)
		}
	}
	return k
}
