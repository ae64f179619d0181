package tpt

import (
	"fmt"
	"slices"

	"hpm/internal/bitkey"
)

// In-place mutation beyond Insert: retiring a pattern whose support or
// confidence fell (delta-Apriori demotion), and widening every key when
// minted regions or new consequence offsets grow the key space. A rewritten
// confidence touches no leaf: the tree keeps none. §V-B only specifies
// insertion; deletion follows the signature-tree shape — descend containing
// entries, tighten union keys on the way back up.
//
// Deletion tolerates node underflow: a leaf may drop below the minimum
// fill without triggering re-insertion. Search stays correct (union keys
// are tightened), only packing quality degrades — and the periodic batch
// rebuild that backstops incremental training restores it.

// Delete removes the item with the given key and ref, returning false
// when no such item is indexed. Key lengths must match the tree's.
func (t *Tree) Delete(key bitkey.PatternKey, ref int) bool {
	var buf [keyBuf]uint64
	if !t.deleteIn(t.root, t.flat(buf[:], key), ref) {
		return false
	}
	t.size--
	// A single-entry internal root adds a level no search needs.
	for !t.root.leaf && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
		t.height--
		t.inner--
	}
	return true
}

func (t *Tree) deleteIn(n *node, pk []uint64, ref int) bool {
	if n.leaf {
		i := t.find(n, pk, ref)
		if i >= 0 {
			t.remove(n, i)
		}
		return i >= 0
	}
	for i, child := range n.kids {
		// A union key contains every key below it, so subtrees whose
		// entry does not contain the target cannot hold it.
		if !bitkey.ContainsWords(t.key(n, i), pk) {
			continue
		}
		if t.deleteIn(child, pk, ref) {
			if child.len() == 0 {
				t.remove(n, i)
				t.count(child, -1)
			} else {
				t.unionOf(t.key(n, i)[:0], child)
			}
			return true
		}
	}
	return false
}

// find returns the index of the leaf entry with the given key and ref, or -1.
func (t *Tree) find(n *node, pk []uint64, ref int) int {
	for i, r := range n.refs {
		if int(r) == ref && slices.Equal(t.key(n, i), pk) {
			return i
		}
	}
	return -1
}

// remove drops entry i of n, keeping the order of the others.
func (t *Tree) remove(n *node, i int) {
	n.keys = slices.Delete(n.keys, i*t.stride, (i+1)*t.stride)
	if n.leaf {
		n.refs = slices.Delete(n.refs, i, i+1)
	} else {
		n.kids = slices.Delete(n.kids, i, i+1)
	}
}

// GrowKeys widens every key in the tree to the given lengths. Grown bits
// are high-order zeros — existing bit positions keep their meaning — so
// search results for already-indexed patterns are unchanged; the tree
// merely becomes able to hold keys mentioning newly minted regions or
// consequence offsets. Only growth across a word boundary moves anything:
// the slabs are then re-strided. Shrinking panics.
func (t *Tree) GrowKeys(ckLen, rkLen int) {
	if ckLen < t.ckLen || rkLen < t.rkLen {
		panic(fmt.Sprintf("tpt: GrowKeys (%d,%d) would shrink tree keys (%d,%d)",
			ckLen, rkLen, t.ckLen, t.rkLen))
	}
	rw, stride := words(rkLen), words(rkLen)+words(ckLen)
	if stride != t.stride || rw != t.rw {
		t.restride(t.root, rw, stride)
	}
	t.ckLen, t.rkLen, t.rw, t.stride = ckLen, rkLen, rw, stride
}

// restride rewrites the slabs under n for rw premise words in a key of
// stride words; each part keeps its low words and gains zero high ones.
func (t *Tree) restride(n *node, rw, stride int) {
	keys := make([]uint64, n.len()*stride)
	for i := 0; i < n.len(); i++ {
		old, k := t.key(n, i), keys[i*stride:]
		copy(k, old[:t.rw])
		copy(k[rw:], old[t.rw:])
	}
	n.keys = keys
	for _, child := range n.kids {
		t.restride(child, rw, stride)
	}
}
