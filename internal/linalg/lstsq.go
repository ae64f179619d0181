package linalg

import (
	"errors"
	"math"
	"sync"
)

// ErrSingular is returned when the regression system is numerically rank
// deficient and no ridge term was supplied to repair it.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// qr is a Householder QR factorization of a rows x cols matrix, rows >= cols,
// held in borrowed row-major slabs: the Householder vectors below the diagonal
// of a and the upper triangle R above it, matching the classic LINPACK layout,
// with R's diagonal in rdiag. Element (i, j) of a is a[i*cols+j], and the
// kernels index the slab themselves: on the 35 x 10 system of an RMF fit a
// checked At or Set per element cost more than the arithmetic between them.
type qr struct {
	rows, cols int
	a, rdiag   []float64
}

// factor overwrites f.a, which holds the matrix, with its factors.
func (f *qr) factor() {
	a, m, n := f.a, f.rows, f.cols
	for k := 0; k < n; k++ {
		// Norm of the k-th column below the diagonal.
		var nrm float64
		for ik := k*n + k; ik < m*n; ik += n {
			nrm = math.Hypot(nrm, a[ik])
		}
		if nrm != 0 {
			kk := k*n + k
			if a[kk] < 0 {
				nrm = -nrm
			}
			for ik := kk; ik < m*n; ik += n {
				a[ik] /= nrm
			}
			a[kk]++
			// Apply the reflector to the remaining columns.
			for j := k + 1; j < n; j++ {
				f.reflect(k, a, j, n)
			}
		}
		f.rdiag[k] = -nrm
	}
}

// reflect applies the k-th Householder reflector to column j of y, a slab of
// f.rows rows and stride columns (f.a itself while factoring).
func (f *qr) reflect(k int, y []float64, j, stride int) {
	a, n, m := f.a, f.cols, f.rows
	var s float64
	for ia, iy := k*n+k, k*stride+j; ia < m*n; ia, iy = ia+n, iy+stride {
		s += a[ia] * y[iy]
	}
	s = -s / a[k*n+k]
	for ia, iy := k*n+k, k*stride+j; ia < m*n; ia, iy = ia+n, iy+stride {
		y[iy] += s * a[ia]
	}
}

// isFullRank reports whether every diagonal of R is meaningfully non-zero
// relative to the matrix scale.
func (f *qr) isFullRank() bool {
	scale := 0.0
	for _, d := range f.rdiag {
		if a := math.Abs(d); a > scale {
			scale = a
		}
	}
	tol := scale * 1e-12
	if tol == 0 {
		return false
	}
	for _, d := range f.rdiag {
		if math.Abs(d) <= tol {
			return false
		}
	}
	return true
}

// solve computes the least-squares solution minimizing ||A*X - B||_F for the
// factored A into x (cols x nb), from y = B (rows x nb), which it overwrites.
func (f *qr) solve(y []float64, nb int, x []float64) error {
	if !f.isFullRank() {
		return ErrSingular
	}
	a, n := f.a, f.cols
	// Apply Householder reflectors to B: Y = Q^T * B.
	for k := 0; k < n; k++ {
		if a[k*n+k] == 0 {
			continue
		}
		for j := 0; j < nb; j++ {
			f.reflect(k, y, j, nb)
		}
	}
	// Back-substitute R*X = Y[0:n].
	for k := n - 1; k >= 0; k-- {
		for j := 0; j < nb; j++ {
			s := y[k*nb+j]
			for i := k + 1; i < n; i++ {
				s -= a[k*n+i] * x[i*nb+j]
			}
			x[k*nb+j] = s / f.rdiag[k]
		}
	}
	return nil
}

// workspace is the scratch of one solve: the system's factors, R's diagonal
// and the right-hand sides. A fleet refits a motion function per observed
// point, so the slabs are pooled instead of allocated per fit.
type workspace struct{ a, rdiag, y []float64 }

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// zeroed returns *buf resized to n zeros, reallocating only to grow.
func zeroed(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	clear(*buf)
	return *buf
}

// RidgeLeastSquares returns the X minimizing
// ||A*X - B||_F^2 + lambda*||X||_F^2 by solving the augmented system
// [A; sqrt(lambda)*I] X = [B; 0]. Any lambda > 0 makes the system full rank,
// so the solve cannot fail; lambda == 0 is plain least squares, which
// returns ErrSingular when A is numerically rank deficient.
//
// RMF fitting uses a small ridge because a stationary object produces
// duplicate regressor rows that are exactly rank deficient.
func RidgeLeastSquares(a, b *Matrix, lambda float64) (*Matrix, error) {
	if lambda < 0 {
		panic("linalg: negative ridge parameter")
	}
	if b.rows != a.rows {
		panic("linalg: QR solve shape mismatch")
	}
	n, nb, m := a.cols, b.cols, a.rows
	if lambda > 0 {
		m += n
	}
	if m < n {
		panic("linalg: QR requires rows >= cols")
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	f := qr{rows: m, cols: n, a: zeroed(&ws.a, m*n), rdiag: zeroed(&ws.rdiag, n)}
	y := zeroed(&ws.y, m*nb)
	copy(f.a, a.data)
	copy(y, b.data)
	if lambda > 0 {
		s := math.Sqrt(lambda)
		for i := 0; i < n; i++ {
			f.a[(a.rows+i)*n+i] = s
		}
	}
	f.factor()
	x := NewMatrix(n, nb)
	if err := f.solve(y, nb, x.data); err != nil {
		return nil, err
	}
	return x, nil
}
