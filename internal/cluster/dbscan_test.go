package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hpm/internal/geom"
)

// blob generates n points normally distributed around center.
func blob(r *rand.Rand, center geom.Point, sigma float64, n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(center.X+r.NormFloat64()*sigma, center.Y+r.NormFloat64()*sigma)
	}
	return pts
}

func TestDBSCANTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pts := append(blob(r, geom.Pt(0, 0), 1, 40), blob(r, geom.Pt(100, 100), 1, 40)...)
	res := DBSCAN(pts, 5, 4)
	if res.NumClusters != 2 {
		t.Fatalf("NumClusters = %d, want 2", res.NumClusters)
	}
	// All points of the same blob must share a label, and the blobs differ.
	first, second := res.Labels[0], res.Labels[40]
	if first == Noise || second == Noise || first == second {
		t.Fatalf("labels %d, %d unexpected", first, second)
	}
	for i := 0; i < 40; i++ {
		if res.Labels[i] != first {
			t.Errorf("blob A point %d labeled %d, want %d", i, res.Labels[i], first)
		}
		if res.Labels[40+i] != second {
			t.Errorf("blob B point %d labeled %d, want %d", i, res.Labels[40+i], second)
		}
	}
}

func TestDBSCANNoise(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	pts := blob(r, geom.Pt(0, 0), 1, 30)
	pts = append(pts, geom.Pt(500, 500)) // isolated outlier
	res := DBSCAN(pts, 5, 4)
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[30] != Noise {
		t.Errorf("outlier labeled %d, want Noise", res.Labels[30])
	}
}

func TestDBSCANAllNoise(t *testing.T) {
	// Far-apart points with minPts 3: nothing clusters.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100)}
	res := DBSCAN(pts, 1, 3)
	if res.NumClusters != 0 {
		t.Fatalf("NumClusters = %d, want 0", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != Noise {
			t.Errorf("point %d labeled %d, want Noise", i, l)
		}
	}
}

func TestDBSCANMinPtsOne(t *testing.T) {
	// With minPts 1 every point is a core point of its own cluster.
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(0, 100)}
	res := DBSCAN(pts, 1, 1)
	if res.NumClusters != 3 {
		t.Fatalf("NumClusters = %d, want 3", res.NumClusters)
	}
}

func TestDBSCANChainConnectivity(t *testing.T) {
	// A chain of points spaced 1 apart with eps 1.5 forms one cluster.
	var pts []geom.Point
	for i := 0; i < 20; i++ {
		pts = append(pts, geom.Pt(float64(i), 0))
	}
	res := DBSCAN(pts, 1.5, 3)
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	for i, l := range res.Labels {
		if l != 0 {
			t.Errorf("chain point %d labeled %d", i, l)
		}
	}
}

func TestDBSCANBorderPointAbsorbed(t *testing.T) {
	// Dense core at origin plus one point just inside eps of the core but
	// with too few neighbors of its own: a classic border point.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(0.1, 0), geom.Pt(0, 0.1), geom.Pt(0.1, 0.1),
		geom.Pt(0.9, 0), // border: within eps=1 of the core points
	}
	res := DBSCAN(pts, 1, 4)
	if res.NumClusters != 1 {
		t.Fatalf("NumClusters = %d, want 1", res.NumClusters)
	}
	if res.Labels[4] != 0 {
		t.Errorf("border point labeled %d, want 0", res.Labels[4])
	}
}

func TestDBSCANEmpty(t *testing.T) {
	res := DBSCAN(nil, 1, 3)
	if res.NumClusters != 0 || len(res.Labels) != 0 {
		t.Errorf("empty input: %+v", res)
	}
}

func TestDBSCANPanics(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0)}
	for _, f := range []func(){
		func() { DBSCAN(pts, 0, 3) },
		func() { DBSCAN(pts, -1, 3) },
		func() { DBSCAN(pts, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid parameters did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMembers(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pts := append(blob(r, geom.Pt(0, 0), 1, 10), blob(r, geom.Pt(50, 50), 1, 12)...)
	res := DBSCAN(pts, 5, 3)
	total := 0
	for c := 0; c < res.NumClusters; c++ {
		total += len(res.Members(c))
	}
	noise := len(res.Members(Noise))
	if total+noise != len(pts) {
		t.Errorf("members %d + noise %d != %d points", total, noise, len(pts))
	}
}

// Property: grid-accelerated neighborhoods equal brute force exactly.
func TestGridMatchesBruteForceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 5 + r.Intn(200)
		pts := make([]geom.Point, n)
		for i := range pts {
			// Mix of negative and positive coordinates exercises the
			// floor-division cell hashing.
			pts[i] = geom.Pt(r.Float64()*200-100, r.Float64()*200-100)
		}
		eps := 1 + r.Float64()*20
		g := newGrid(pts, eps)
		for i := 0; i < n; i++ {
			var got []int
			for _, j := range g.rangeQuery(pts, int32(i), nil) {
				got = append(got, int(j))
			}
			want := BruteForceNeighbors(pts, i, eps)
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("trial %d point %d: grid %d neighbors, brute %d", trial, i, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("trial %d point %d: neighbor sets differ", trial, i)
				}
			}
		}
	}
}

// refDBSCAN is DBSCAN as the paper's source states it, over brute-force
// neighborhoods and with a queue where DBSCAN keeps a stack: seeds in index
// order, each cluster grown in full, breadth first, before the next seed,
// and a border point labeled by the first cluster that reaches it.
func refDBSCAN(pts []geom.Point, eps float64, minPts int) Result {
	n := len(pts)
	nb := make([][]int, n)
	labels := make([]int, n)
	for i := range pts {
		nb[i] = BruteForceNeighbors(pts, i, eps)
		labels[i] = Noise
	}
	c := 0
	for i := range pts {
		if labels[i] != Noise || len(nb[i]) < minPts {
			continue
		}
		labels[i] = c
		for queue := []int{i}; len(queue) > 0; queue = queue[1:] {
			for _, k := range nb[queue[0]] {
				if labels[k] == Noise {
					labels[k] = c
					if len(nb[k]) >= minPts {
						queue = append(queue, k)
					}
				}
			}
		}
		c++
	}
	return Result{Labels: labels, NumClusters: c}
}

// oraclePoints draws n points for eps: loose groups around centers on both
// sides of the origin, every sixth a copy of an earlier point and every
// seventh snapped onto the eps lattice, so coordinates fall exactly on cell
// edges and distances come out exactly eps.
func oraclePoints(r *rand.Rand, n int, eps float64) []geom.Point {
	centers := make([]geom.Point, 1+r.Intn(8))
	for i := range centers {
		centers[i] = geom.Pt(r.Float64()*20*eps-10*eps, r.Float64()*20*eps-10*eps)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		c := centers[r.Intn(len(centers))]
		p := geom.Pt(c.X+r.NormFloat64()*eps, c.Y+r.NormFloat64()*eps)
		switch {
		case i > 0 && i%6 == 0:
			p = pts[r.Intn(i)]
		case i%7 == 0:
			p = geom.Pt(math.Round(p.X/eps)*eps, math.Round(p.Y/eps)*eps)
		}
		pts[i] = p
	}
	return pts
}

// TestDBSCANMatchesReference: the grid's DBSCAN labels every point as the
// brute-force reference does, label for label, from one point to a
// thousand, at the training shape (ten points, eps 30, MinPts 4) and with
// border points two clusters reach.
func TestDBSCANMatchesReference(t *testing.T) {
	require := func(what string, pts []geom.Point, eps float64, minPts int) {
		t.Helper()
		got, want := DBSCAN(pts, eps, minPts), refDBSCAN(pts, eps, minPts)
		if got.NumClusters != want.NumClusters || !slices.Equal(got.Labels, want.Labels) {
			t.Fatalf("%s: %d clusters %v, reference %d %v", what, got.NumClusters, got.Labels, want.NumClusters, want.Labels)
		}
	}
	r := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 5, 10, 31, 100, 300, 1000} {
		for trial := 0; trial < 20; trial++ {
			eps := []float64{30, 1, 2.5, 0.7}[trial%4]
			minPts := 1 + r.Intn(6)
			require(fmt.Sprintf("n=%d trial %d", n, trial), oraclePoints(r, n, eps), eps, minPts)
		}
	}
	// Far from the origin, where cell coordinates pass ±2³¹ and clamp.
	for _, off := range []float64{1e12, -1e12} {
		pts := oraclePoints(r, 200, 30)
		for i := range pts {
			pts[i] = geom.Pt(pts[i].X+off, pts[i].Y-off)
		}
		require(fmt.Sprintf("offset %g", off), pts, 30, 4)
	}
	// The training shape: one offset group of ten periods.
	for trial := 0; trial < 500; trial++ {
		require(fmt.Sprintf("training shape, trial %d", trial), oraclePoints(r, 10, 30), 30, 4)
	}
	// A border point two clusters reach, on the lattice: (30, 0) is within
	// eps of a core of each and has too few neighbors of its own. It takes
	// the label of the cluster whose seed comes first, whichever side that is.
	left := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(0, -1), geom.Pt(-1, 0)}
	right := []geom.Point{geom.Pt(60, 0), geom.Pt(60, 1), geom.Pt(60, -1), geom.Pt(61, 0)}
	border := geom.Pt(30, 0)
	for _, pts := range [][]geom.Point{
		append(append(slices.Clone(left), right...), border),
		append(append(slices.Clone(right), left...), border),
		append(append([]geom.Point{border}, right...), left...),
	} {
		require("shared border point", pts, 30, 4)
	}
}

// Property: DBSCAN invariants on random data — every core point is
// clustered, labels are dense in [0, NumClusters), and any two points
// within eps where both are core share a cluster.
func TestDBSCANInvariantsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 20 + r.Intn(150)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(r.Float64()*100, r.Float64()*100)
		}
		eps := 3 + r.Float64()*5
		minPts := 2 + r.Intn(4)
		res := DBSCAN(pts, eps, minPts)

		seen := make(map[int]bool)
		for i := range pts {
			nb := BruteForceNeighbors(pts, i, eps)
			core := len(nb) >= minPts
			if core && res.Labels[i] == Noise {
				t.Fatalf("trial %d: core point %d labeled noise", trial, i)
			}
			if res.Labels[i] != Noise {
				seen[res.Labels[i]] = true
				if res.Labels[i] < 0 || res.Labels[i] >= res.NumClusters {
					t.Fatalf("trial %d: label %d out of range", trial, res.Labels[i])
				}
			}
			// Density connectivity: a core point's eps-neighbors may never
			// stay noise, and two mutually-reachable core points must share
			// a cluster. (A border point between two clusters may join
			// either, so only core neighbors get the equality check.)
			if core {
				for _, j := range nb {
					if res.Labels[j] == Noise {
						t.Fatalf("trial %d: neighbor %d of core %d left as noise", trial, j, i)
					}
					if len(BruteForceNeighbors(pts, j, eps)) >= minPts && res.Labels[j] != res.Labels[i] {
						t.Fatalf("trial %d: core neighbor %d of core %d in cluster %d, want %d",
							trial, j, i, res.Labels[j], res.Labels[i])
					}
				}
			}
		}
		if len(seen) != res.NumClusters {
			t.Fatalf("trial %d: %d distinct labels, NumClusters %d", trial, len(seen), res.NumClusters)
		}
	}
}

func BenchmarkDBSCANGrid1000(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var pts []geom.Point
	for c := 0; c < 10; c++ {
		pts = append(pts, blob(r, geom.Pt(r.Float64()*1000, r.Float64()*1000), 10, 100)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 15, 4)
	}
}

// BenchmarkDBSCAN runs DBSCAN at the shape a first train calls it at: one
// time-offset group of ten periods (ten points), eps 30, MinPts 4: two
// groups of visits and two strays.
func BenchmarkDBSCAN(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	pts := append(blob(r, geom.Pt(400, 300), 8, 5), blob(r, geom.Pt(470, 320), 8, 3)...)
	pts = append(pts, geom.Pt(430, 380), geom.Pt(900, 50))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dbscanSink = DBSCAN(pts, 30, 4)
	}
}

// dbscanSink keeps BenchmarkDBSCAN's result live.
var dbscanSink Result

// BruteForceNeighbors returns the indices of all points within eps of
// points[i] by linear scan. It is the reference oracle the grid index is
// tested against and the baseline for index micro-benchmarks.
func BruteForceNeighbors(points []geom.Point, i int, eps float64) []int {
	var out []int
	eps2 := eps * eps
	for j, q := range points {
		if q.Dist2(points[i]) <= eps2 {
			out = append(out, j)
		}
	}
	return out
}
