package tpt

import (
	"fmt"
	"slices"

	"hpm/internal/bitkey"
)

// In-place mutation beyond Insert: retiring patterns whose support or
// confidence fell (delta-Apriori demotion), and widening every key when
// minted regions or new consequence offsets grow the key space. A rewritten
// confidence touches no leaf: the tree keeps none. §V-B only specifies
// insertion; deletion follows the signature-tree shape — descend containing
// entries, tighten union keys on the way back up — batched, so a union is
// re-derived once per batch however many removals pass under it.
//
// Deletion tolerates node underflow: a leaf may drop below the minimum
// fill without triggering re-insertion. Search stays correct (union keys
// are tightened), only packing quality degrades, and underfull nodes stay
// until a rebuild repacks them (ROADMAP item 5).

// Delete removes the n items fill describes, each as Build reads one — its
// key set in zeroed words of the tree's lengths, and its reference — and
// returns how many it found; an item named twice is found once. Each
// removal descends as one alone would and marks the nodes on its path; one
// pass over the marked nodes then drops the emptied ones and re-derives
// each remaining union, so the tree ends as the removals one by one, in
// any order, would leave it.
func (t *Tree) Delete(n int, fill Fill) int {
	pk, found := make([]uint64, t.stride), 0
	for i := 0; i < n; i++ {
		clear(pk)
		if t.deleteIn(t.root, pk, int(t.filled(fill, i, pk))) {
			found++
		}
	}
	if found == 0 {
		return 0
	}
	t.size -= found
	t.tighten(t.root)
	// A single-entry internal root adds a level no search needs.
	for !t.root.leaf && len(t.root.kids) == 1 {
		t.root = t.root.kids[0]
		t.height--
		t.inner--
	}
	if t.size == 0 { // as the last removal of one by one leaves it
		t.root, t.height, t.leaves, t.inner = &node{leaf: true}, 1, 1, 0
	}
	return found
}

// deleteIn removes the item under n and marks n when it finds it. Unions
// above earlier removals of the batch are not tightened yet, so a descent
// may enter a subtree that no longer holds the key, but never misses one
// that does.
func (t *Tree) deleteIn(n *node, pk []uint64, ref int) bool {
	if n.leaf {
		i := t.find(n, pk, ref)
		if i >= 0 {
			t.remove(n, i)
			n.touched = true
		}
		return i >= 0
	}
	for i, child := range n.kids {
		// A union key contains every key below it, so subtrees whose
		// entry does not contain the target cannot hold it.
		if bitkey.ContainsWords(t.key(n, i), pk) && t.deleteIn(child, pk, ref) {
			n.touched = true
			return true
		}
	}
	return false
}

// tighten clears n's mark and, below it, drops every marked child the
// removals emptied and re-derives the union of every other marked one,
// children first.
func (t *Tree) tighten(n *node) {
	n.touched = false
	for i := 0; i < len(n.kids); {
		child := n.kids[i]
		if !child.touched {
			i++
			continue
		}
		t.tighten(child)
		if child.len() == 0 {
			t.remove(n, i)
			t.count(child, -1)
			continue
		}
		t.unionOf(t.key(n, i)[:0], child)
		i++
	}
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
