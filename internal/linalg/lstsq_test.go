package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refLeastSquares is the solver as it stood before the kernels indexed their
// slabs: the same Householder QR, written against At and Set, with a fresh
// matrix for every intermediate. It is the oracle the slab kernels are held
// to, coefficient bits and all.
func refLeastSquares(a, b *Matrix, lambda float64) (*Matrix, error) {
	if lambda > 0 {
		n := a.cols
		aug := NewMatrix(a.rows+n, n)
		for i := 0; i < a.rows; i++ {
			copy(aug.data[i*n:(i+1)*n], a.data[i*n:(i+1)*n])
		}
		s := math.Sqrt(lambda)
		for i := 0; i < n; i++ {
			aug.Set(a.rows+i, i, s)
		}
		baug := NewMatrix(a.rows+n, b.cols)
		for i := 0; i < b.rows; i++ {
			copy(baug.data[i*b.cols:(i+1)*b.cols], b.data[i*b.cols:(i+1)*b.cols])
		}
		a, b = aug, baug
	}
	// Factor.
	a = a.Clone()
	n := a.cols
	rdiag := make([]float64, n)
	for k := 0; k < n; k++ {
		var nrm float64
		for i := k; i < a.rows; i++ {
			nrm = math.Hypot(nrm, a.At(i, k))
		}
		if nrm != 0 {
			if a.At(k, k) < 0 {
				nrm = -nrm
			}
			for i := k; i < a.rows; i++ {
				a.Set(i, k, a.At(i, k)/nrm)
			}
			a.Set(k, k, a.At(k, k)+1)
			for j := k + 1; j < n; j++ {
				var s float64
				for i := k; i < a.rows; i++ {
					s += a.At(i, k) * a.At(i, j)
				}
				s = -s / a.At(k, k)
				for i := k; i < a.rows; i++ {
					a.Set(i, j, a.At(i, j)+s*a.At(i, k))
				}
			}
		}
		rdiag[k] = -nrm
	}
	// Rank test.
	scale := 0.0
	for _, d := range rdiag {
		scale = math.Max(scale, math.Abs(d))
	}
	if scale == 0 {
		return nil, ErrSingular
	}
	for _, d := range rdiag {
		if math.Abs(d) <= scale*1e-12 {
			return nil, ErrSingular
		}
	}
	// Y = Q^T * B, then back-substitute R*X = Y[0:n].
	nb := b.cols
	y := b.Clone()
	for k := 0; k < n; k++ {
		if a.At(k, k) == 0 {
			continue
		}
		for j := 0; j < nb; j++ {
			var s float64
			for i := k; i < a.rows; i++ {
				s += a.At(i, k) * y.At(i, j)
			}
			s = -s / a.At(k, k)
			for i := k; i < a.rows; i++ {
				y.Set(i, j, y.At(i, j)+s*a.At(i, k))
			}
		}
	}
	x := NewMatrix(n, nb)
	for k := n - 1; k >= 0; k-- {
		for j := 0; j < nb; j++ {
			s := y.At(k, j)
			for i := k + 1; i < n; i++ {
				s -= a.At(k, i) * x.At(i, j)
			}
			x.Set(k, j, s/rdiag[k])
		}
	}
	return x, nil
}

// rmfSystem builds the regression an RMF fit of retrospect f solves over a
// window of locations, the way motion.RMF lays it out: row t holds the f
// locations before t, newest first, and the right-hand side the location at
// t. The retrospect degrades as feasibleRetrospect degrades it.
func rmfSystem(pts [][2]float64, f int) (a, b *Matrix, scale float64) {
	n := len(pts)
	for f > 1 && n-f < f {
		f--
	}
	if n-f < 1 {
		f = n - 1
	}
	m := n - f
	a, b = NewMatrix(m, 2*f), NewMatrix(m, 2)
	for row := 0; row < m; row++ {
		t := row + f
		for i := 1; i <= f; i++ {
			p := pts[t-i]
			a.Set(row, 2*(i-1), p[0])
			a.Set(row, 2*(i-1)+1, p[1])
			scale = math.Max(scale, math.Max(math.Abs(p[0]), math.Abs(p[1])))
		}
		b.Set(row, 0, pts[t][0])
		b.Set(row, 1, pts[t][1])
	}
	return a, b, scale
}

// requireSameBits solves one system both ways, with the ridge on and off,
// and demands the same error or the same coefficients bit for bit.
func requireSameBits(t *testing.T, name string, a, b *Matrix, scale float64) {
	t.Helper()
	lambda := 1e-9 * scale * scale
	if lambda <= 0 {
		lambda = 1e-9
	}
	for _, l := range []float64{lambda, 0} {
		if l == 0 && a.rows < a.cols {
			continue // underdetermined without the ridge rows: both panic
		}
		want, wantErr := refLeastSquares(a, b, l)
		got, err := RidgeLeastSquares(a, b, l)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s lambda=%g: err %v, reference %v", name, l, err, wantErr)
		}
		if err != nil {
			continue
		}
		if got.rows != want.rows || got.cols != want.cols {
			t.Fatalf("%s lambda=%g: shape %dx%d, reference %dx%d", name, l, got.rows, got.cols, want.rows, want.cols)
		}
		for i, w := range want.data {
			if math.Float64bits(got.data[i]) != math.Float64bits(w) {
				t.Fatalf("%s lambda=%g: coefficient %d = %x (%g), reference %x (%g)",
					name, l, i, math.Float64bits(got.data[i]), got.data[i], math.Float64bits(w), w)
			}
		}
	}
}

// TestSlabKernelsMatchReference: the slab-indexed QR returns the reference's
// coefficients to the bit on 200 seeded RMF windows and on the degenerate
// ones a fleet produces, and the reference's error where it fails. The pooled
// workspace is reused from system to system, of differing shapes, so a slab
// not cleared would show here too.
func TestSlabKernelsMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for w := 0; w < 200; w++ {
		n := 2 + r.Intn(40)
		pts := make([][2]float64, n)
		x, y := 1e4*r.Float64(), 1e4*r.Float64()
		vx, vy := 40*r.NormFloat64(), 40*r.NormFloat64()
		for i := range pts {
			vx, vy = vx+5*r.NormFloat64(), vy+5*r.NormFloat64()
			x, y = x+vx, y+vy
			pts[i] = [2]float64{x, y}
		}
		a, b, scale := rmfSystem(pts, 1+r.Intn(6))
		requireSameBits(t, "seeded window", a, b, scale)
	}

	line := func(n int, x0, y0, dx, dy float64) [][2]float64 {
		pts := make([][2]float64, n)
		for i := range pts {
			pts[i] = [2]float64{x0 + dx*float64(i), y0 + dy*float64(i)}
		}
		return pts
	}
	for name, c := range map[string]struct {
		pts [][2]float64
		f   int
	}{
		"stationary object":   {line(30, 512, 768, 0, 0), 5},
		"stationary at zero":  {line(30, 0, 0, 0, 0), 5},
		"collinear track":     {line(30, 100, 200, 3, 4), 5},
		"axis-aligned track":  {line(30, 100, 200, 7, 0), 5},
		"two points":          {line(2, 10, 20, 1, 2), 5},
		"three points":        {line(3, 10, 20, 1, 2), 5},
		"degraded retrospect": {line(7, 10, 20, 1, -2), 5},
		"negative quadrant":   {line(30, -900, -400, -3, 2), 3},
	} {
		a, b, scale := rmfSystem(c.pts, c.f)
		requireSameBits(t, name, a, b, scale)
	}

	// The ErrSingular path, and a zero column in front of a live one.
	for name, rows := range map[string][][]float64{
		"repeated column": {{1, 1}, {2, 2}, {3, 3}},
		"zero matrix":     {{0, 0}, {0, 0}, {0, 0}},
		"zero column":     {{0, 1}, {0, 2}, {0, 4}},
	} {
		requireSameBits(t, name, NewMatrixFromRows(rows), NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}}), 1)
	}
}

// FuzzSlabKernels reads a retrospect and a window of coordinates out of the
// input and holds the slab kernels to the reference on the regression an RMF
// fit would solve over it, ridge on and off. The seeds run under plain go
// test.
func FuzzSlabKernels(f *testing.F) {
	f.Add([]byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add([]byte{2, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}) // stationary
	f.Add([]byte{9, 0, 0, 0, 0})
	seq := make([]byte, 121)
	rand.New(rand.NewSource(4)).Read(seq)
	f.Add(seq)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		n := min((len(in)-1)/2, 64)
		pts := make([][2]float64, n)
		for i := range pts {
			// Small integer coordinates: tracks that stand still, turn back
			// and repeat rows, which is where the rank test earns its keep.
			pts[i] = [2]float64{float64(in[1+2*i]) - 100, 3 * float64(in[2+2*i])}
		}
		a, b, scale := rmfSystem(pts, 1+int(in[0])%7)
		requireSameBits(t, "fuzzed window", a, b, scale)
	})
}

// TestWorkspacePoolConcurrent: solves of differing shapes running at once
// draw their scratch from the one pool and still return the reference's
// bits. Run under the race detector by make race.
func TestWorkspacePoolConcurrent(t *testing.T) {
	type system struct {
		a, b  *Matrix
		scale float64
	}
	r := rand.New(rand.NewSource(8))
	systems := make([]system, 64)
	for i := range systems {
		pts := make([][2]float64, 4+r.Intn(36))
		for j := range pts {
			pts[j] = [2]float64{1e3 * r.Float64(), 1e3 * r.Float64()}
		}
		a, b, scale := rmfSystem(pts, 1+r.Intn(6))
		systems[i] = system{a, b, scale}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range systems {
				s := systems[(i+8*g)%len(systems)]
				want, _ := refLeastSquares(s.a, s.b, 1e-9*s.scale*s.scale)
				got, err := RidgeLeastSquares(s.a, s.b, 1e-9*s.scale*s.scale)
				if err != nil || !slices.Equal(got.data, want.data) {
					t.Errorf("goroutine %d system %d: %v, %v; reference %v", g, i, got, err, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
