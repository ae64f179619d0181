// Package linalg implements the small dense linear-algebra kernel needed to
// fit the Recursive Motion Function: real matrices, Householder QR
// factorization, and (ridge-regularized) least-squares solves with multiple
// right-hand sides.
//
// The RMF paper attributes an O(n^3) Singular Value Decomposition cost to
// model fitting. QR least squares solves the identical regression problem in
// the same cubic cost class with better numerical robustness for our use,
// and the optional ridge term guards against the rank deficiency that arises
// when an object stands still (rows of the regressor matrix repeat).
package linalg

import "fmt"

// Matrix is a dense, row-major real matrix.
type Matrix struct {
	rows, cols int
	data       []float64 // len == rows*cols
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Data returns the matrix's row-major slab, element (i, j) at i*cols+j —
// borrowed, not copied, for callers that fill or read a whole matrix in a
// loop where At and Set would check every index.
func (m *Matrix) Data() []float64 { return m.data }

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of %dx%d", i, j, m.rows, m.cols))
	}
}
