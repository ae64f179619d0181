package tpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Shape is a tree's arrangement without its keys. The keys follow from it —
// a leaf key is its item's, an internal key the OR of the child below — so it
// is all a saved model carries to get its tree back without sorting, and a
// wrong one describes, at worst, a differently packed correct tree.
type Shape struct {
	Refs []int32 // the item of each leaf entry, in leaf-walk order
	// Counts are the entry counts of every node, left to right, one slice
	// per level: leaves first, the root last. An empty tree has none.
	Counts [][]int32
}

// maxHeight bounds a shape's levels, the depth a search recurses to.
const maxHeight = 64

// Shape reads the shape off the tree as it stands, bulk-loaded or rearranged
// by Insert, Delete and GrowKeys; Refs are the entries' refs, in 32 bits.
func (t *Tree) Shape() Shape {
	var sh Shape
	if t.size == 0 {
		return sh
	}
	sh.Refs = make([]int32, 0, t.size)
	sh.Counts = make([][]int32, t.height)
	var walk func(n *node, level int)
	walk = func(n *node, level int) {
		sh.Counts[level] = append(sh.Counts[level], int32(n.len()))
		for _, p := range n.items {
			sh.Refs = append(sh.Refs, int32(p.ref))
		}
		for _, child := range n.kids {
			walk(child, level-1)
		}
	}
	walk(t.root, t.height-1)
	return sh
}

// AppendBinary appends the shape to dst as uvarints: the entry count and
// the refs, then the level count and, per level, its node count and counts.
func (sh Shape) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(sh.Refs)))
	for _, ref := range sh.Refs {
		dst = binary.AppendUvarint(dst, uint64(ref))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sh.Counts)))
	for _, counts := range sh.Counts {
		dst = binary.AppendUvarint(dst, uint64(len(counts)))
		for _, c := range counts {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	}
	return dst
}

// DecodeShape decodes what AppendBinary wrote. It checks the encoding only —
// Build checks the shape — and sizes every allocation by the input's length.
func DecodeShape(b []byte) (Shape, error) {
	var sh Shape
	var err error
	next := func(limit int) int32 {
		v, k := binary.Uvarint(b)
		if err == nil && (k <= 0 || v > uint64(limit)) {
			err = errors.New("tpt: corrupt shape encoding")
		}
		if err != nil {
			return 0
		}
		b = b[k:]
		return int32(v)
	}
	sh.Refs = make([]int32, next(len(b)))
	for i := range sh.Refs {
		sh.Refs[i] = next(math.MaxInt32)
	}
	sh.Counts = make([][]int32, next(len(b)))
	for l := range sh.Counts {
		sh.Counts[l] = make([]int32, next(len(b)))
		for i := range sh.Counts[l] {
			sh.Counts[l][i] = next(math.MaxInt32)
		}
	}
	if err == nil && len(b) != 0 {
		err = fmt.Errorf("tpt: %d bytes after the shape", len(b))
	}
	return sh, err
}

// check reports whether sh arranges exactly the items [0, n) into a tree of
// nodes of 1 to max entries: the refs are a permutation, every level's counts
// add up to the nodes below, one root tops them. The floor is one entry, not
// the minimum fill: a tree that lived through Delete's underflow must load.
func (sh Shape) check(n, max int) error {
	if len(sh.Refs) != n || len(sh.Counts) > maxHeight || (n > 0 && len(sh.Counts) == 0) {
		return fmt.Errorf("tpt: shape places %d items on %d levels, the tree holds %d", len(sh.Refs), len(sh.Counts), n)
	}
	seen := make([]uint64, words(n))
	for _, ref := range sh.Refs {
		if ref < 0 || int(ref) >= n || seen[ref>>6]&(1<<(ref&63)) != 0 {
			return fmt.Errorf("tpt: shape ref %d is out of range or placed twice", ref)
		}
		seen[ref>>6] |= 1 << (ref & 63)
	}
	below := n
	for l, counts := range sh.Counts {
		sum := 0
		for _, c := range counts {
			if c < 1 || int(c) > max {
				return fmt.Errorf("tpt: shape level %d has a node of %d entries, capacity %d", l, c, max)
			}
			sum += int(c)
		}
		if sum != below {
			return fmt.Errorf("tpt: shape level %d holds %d entries over %d below", l, sum, below)
		}
		below = len(counts)
	}
	if n > 0 && below != 1 {
		return fmt.Errorf("tpt: shape ends in %d roots", below)
	}
	return nil
}

// build lays a shape out bottom-up. Leaves come first, each in slabs of
// exactly its size: leaf is handed sh.Refs one by one with the zeroed key of
// the entry to fill and returns its payload. Every level above holds the
// unions of the nodes below, so containment holds by construction.
func (t *Tree) build(sh Shape, leaf func(i int32, key []uint64) payload) {
	if len(sh.Refs) == 0 {
		return
	}
	refs := sh.Refs
	level := make([]*node, len(sh.Counts[0]))
	for i, c := range sh.Counts[0] {
		n := &node{leaf: true, keys: make([]uint64, int(c)*t.stride), items: make([]payload, c)}
		for j := range n.items {
			n.items[j] = leaf(refs[j], t.key(n, j))
		}
		refs = refs[c:]
		level[i] = n
	}
	for _, counts := range sh.Counts[1:] {
		up := make([]*node, len(counts))
		for i, c := range counts {
			n := &node{kids: slices.Clone(level[:c]), keys: make([]uint64, 0, int(c)*t.stride)}
			for _, child := range n.kids {
				n.keys = t.unionOf(n.keys, child)
			}
			level = level[c:]
			up[i] = n
		}
		level = up
	}
	t.root, t.height, t.size = level[0], len(sh.Counts), len(sh.Refs)
}
