// Package cluster implements DBSCAN (Ester, Kriegel, Sander, Xu, KDD 1996),
// the density-based clustering algorithm the paper uses to detect frequent
// regions inside each time-offset group G_t. The Eps and MinPts parameters
// "play the same role as support of mining frequent item sets" (§IV): a
// cluster exists only where the object appeared densely often.
//
// Neighborhood queries run against a uniform grid with cell side Eps, so a
// point's Eps-neighbors are confined to its 3x3 cell block. The grid is one
// sorted slice of the occupied cells — no hash map — and a brute-force scan
// is kept as the reference oracle for equivalence tests.
package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"hpm/internal/geom"
)

// Noise is the label assigned to points that belong to no cluster.
const Noise = -1

// Result holds a clustering of the input points.
type Result struct {
	// Labels[i] is the cluster id of point i, in [0, NumClusters), or Noise.
	Labels []int
	// NumClusters is the number of clusters found.
	NumClusters int
}

// Members returns the indices of the points labeled with cluster id c.
func (r Result) Members(c int) []int {
	var out []int
	for i, l := range r.Labels {
		if l == c {
			out = append(out, i)
		}
	}
	return out
}

// DBSCAN clusters points with radius eps and density threshold minPts.
// A point is a core point when at least minPts points (itself included) lie
// within distance eps; clusters are the connected components of core points
// plus their border points. It panics on invalid parameters because the
// mining pipeline validates them once up front.
func DBSCAN(points []geom.Point, eps float64, minPts int) Result {
	if eps <= 0 {
		panic(fmt.Sprintf("cluster: eps must be positive, got %v", eps))
	}
	if minPts < 1 {
		panic(fmt.Sprintf("cluster: minPts must be >= 1, got %d", minPts))
	}
	n := len(points)
	labels := make([]int, n)
	if n == 0 {
		return Result{Labels: labels}
	}
	// A label below Noise marks a point no neighborhood has reached yet.
	const unvisited = Noise - 1
	for i := range labels {
		labels[i] = unvisited
	}

	g := newGrid(points, eps)
	// The neighborhood being read and the points waiting to be expanded:
	// neither ever holds more than n.
	buf := make([]int32, 2*n)
	nb, frontier := buf[:0:n], buf[n:n]
	nextCluster := 0

	// Labels do not depend on the order neighbors come in: a cluster is
	// expanded in full before the next seed is tried, so every point it
	// reaches is labeled by it unless an earlier cluster already was.
	for i := range int32(n) {
		if labels[i] != unvisited {
			continue
		}
		if nb = g.rangeQuery(points, i, nb[:0]); len(nb) < minPts {
			labels[i] = Noise // unless later absorbed as a border point
			continue
		}
		// Start a new cluster and expand it from i: every neighbor of a
		// core point joins it unless an earlier cluster holds it, and every
		// one not reached before waits to be tried as a core point in turn.
		c := nextCluster
		nextCluster++
		labels[i] = c
		for {
			for _, k := range nb {
				switch labels[k] {
				case unvisited:
					frontier = append(frontier, k)
					labels[k] = c
				case Noise:
					labels[k] = c
				}
			}
			if len(frontier) == 0 {
				break
			}
			j := frontier[len(frontier)-1]
			frontier = frontier[:len(frontier)-1]
			if nb = g.rangeQuery(points, j, nb[:0]); len(nb) < minPts {
				nb = nb[:0] // a border point: its neighborhood does not continue c
			}
		}
	}
	return Result{Labels: labels, NumClusters: nextCluster}
}

// grid is a uniform grid with cell side = eps, so all eps-neighbors of a
// point are inside the surrounding 3x3 cell block. A cell is one word, its
// column above its row, so the three cells of one column of the block are
// three consecutive words; the occupied cells sit in one sorted slice, and a
// column is one binary search and a short scan. Nothing is hashed, and
// nothing is allocated per query. A group of at most smallGroup points —
// one offset of a first train over ten periods holds ten — builds no cells:
// a query scans the whole group, which costs less than building the grid.
type grid struct {
	eps2    float64
	at      []uint64 // at[i] is the cell of point i
	cells   []uint64 // the occupied cells, ascending; nil: scan every point
	start   []int32  // members of cells[c] are members[start[c]:start[c+1]]
	members []int32  // point indices by cell, ascending within one
}

// smallGroup is the group size up to which a query scans every point.
const smallGroup = 16

// newGrid indexes points in cells of side eps.
func newGrid(points []geom.Point, eps float64) grid {
	n := len(points)
	g := grid{eps2: eps * eps}
	if n <= smallGroup {
		return g
	}
	words, idx := make([]uint64, 2*n), make([]int32, 2*n+1)
	g.at, g.cells, g.members, g.start = words[:n], words[n:n], idx[:n], idx[n:n]
	for i, p := range points {
		g.at[i] = cellWord(floorDiv(p.X, eps))<<32 | cellWord(floorDiv(p.Y, eps))
		g.members[i] = int32(i)
	}
	// Members by cell, index order within one.
	slices.SortStableFunc(g.members, func(a, b int32) int { return cmp.Compare(g.at[a], g.at[b]) })
	for m, i := range g.members {
		if k := g.at[i]; m == 0 || k != g.cells[len(g.cells)-1] {
			g.cells = append(g.cells, k)
			g.start = append(g.start, int32(m))
		}
	}
	g.start = append(g.start, int32(n))
	return g
}

// cellWord maps a cell coordinate to 32 bits, order kept. Coordinates past
// ±2³¹ clamp one short of the ends, so a neighbor's coordinate never wraps;
// clamping merges far cells, which costs distance checks, never a neighbor.
func cellWord(c float64) uint64 {
	const lim = 1<<31 - 2
	return uint64(int64(max(-lim, min(lim, c))) + 1<<31)
}

func floorDiv(v, cell float64) float64 {
	q := v / cell
	f := float64(int(q))
	if q < 0 && q != f {
		f--
	}
	return f
}

// rangeQuery appends to dst the indices of all points within eps of
// points[i] (including i itself) and returns the extended slice: column by
// column of the 3x3 block, cell by cell up it, in index order within a cell
// — or, in a group with no cells, in index order.
func (g *grid) rangeQuery(points []geom.Point, i int32, dst []int32) []int32 {
	p := points[i]
	if g.cells == nil {
		for j, q := range points {
			if q.Dist2(p) <= g.eps2 {
				dst = append(dst, int32(j))
			}
		}
		return dst
	}
	k := g.at[i]
	for _, col := range [3]uint64{k - 1<<32, k, k + 1<<32} {
		// The first cell at or past the column's lowest, by bisection.
		c, hi := 0, len(g.cells)
		for c < hi {
			if m := int(uint(c+hi) >> 1); g.cells[m] < col-1 {
				c = m + 1
			} else {
				hi = m
			}
		}
		for ; c < len(g.cells) && g.cells[c] <= col+1; c++ {
			for _, j := range g.members[g.start[c]:g.start[c+1]] {
				if points[j].Dist2(p) <= g.eps2 {
					dst = append(dst, j)
				}
			}
		}
	}
	return dst
}
