package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 2)
	if m.rows != 3 || m.cols != 2 {
		t.Fatalf("shape = %dx%d, want 3x2", m.rows, m.cols)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("zero matrix has %v at (%d,%d)", m.At(i, j), i, j)
			}
		}
	}
}

func TestNewMatrixPanics(t *testing.T) {
	for _, shape := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMatrix(%d,%d) did not panic", shape[0], shape[1])
				}
			}()
			NewMatrix(shape[0], shape[1])
		}()
	}
}

func TestNewMatrixFromRows(t *testing.T) {
	m := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(2, 1) != 6 || m.At(0, 0) != 1 {
		t.Errorf("unexpected contents: %v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows did not panic")
		}
	}()
	NewMatrixFromRows([][]float64{{1, 2}, {3}})
}

func TestMul(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewMatrixFromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Errorf("Mul[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMulIdentityProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(6)
		a := NewMatrix(n, n)
		id := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		p := a.Mul(id)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEqual(p.At(i, j), a.At(i, j), 1e-12) {
					t.Fatalf("A*I != A at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 1, 1})
	if got[0] != 6 || got[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.rows != 3 || at.cols != 2 {
		t.Fatalf("transpose shape = %dx%d", at.rows, at.cols)
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Errorf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Square non-singular system: solution is exact.
	a := NewMatrixFromRows([][]float64{{2, 1}, {1, 3}})
	b := NewMatrixFromRows([][]float64{{5}, {10}})
	x, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
	if !almostEqual(x.At(0, 0), 1, 1e-10) || !almostEqual(x.At(1, 0), 3, 1e-10) {
		t.Errorf("x = [%v %v], want [1 3]", x.At(0, 0), x.At(1, 0))
	}
}

func TestLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2t + 1 through noiseless samples; regression must recover it.
	a := NewMatrix(5, 2)
	b := NewMatrix(5, 1)
	for i := 0; i < 5; i++ {
		tt := float64(i)
		a.Set(i, 0, tt)
		a.Set(i, 1, 1)
		b.Set(i, 0, 2*tt+1)
	}
	x, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x.At(0, 0), 2, 1e-10) || !almostEqual(x.At(1, 0), 1, 1e-10) {
		t.Errorf("fit = [%v %v], want [2 1]", x.At(0, 0), x.At(1, 0))
	}
}

func TestLeastSquaresMultipleRHS(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})
	// Two right-hand sides solved simultaneously.
	b := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	x, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.cols != 2 {
		t.Fatalf("solution cols = %d, want 2", x.cols)
	}
	// Second RHS is exactly twice the first, so the solution must be too.
	for i := 0; i < x.rows; i++ {
		if !almostEqual(x.At(i, 1), 2*x.At(i, 0), 1e-10) {
			t.Errorf("RHS scaling not preserved at row %d", i)
		}
	}
}

func TestLeastSquaresSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}}) // rank 1
	b := NewMatrixFromRows([][]float64{{1}, {2}, {3}})
	if _, err := RidgeLeastSquares(a, b, 0); err != ErrSingular {
		t.Errorf("err = %v, want ErrSingular", err)
	}
}

func TestRidgeRepairsSingular(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	b := NewMatrixFromRows([][]float64{{1}, {2}, {3}})
	x, err := RidgeLeastSquares(a, b, 1e-6)
	if err != nil {
		t.Fatalf("ridge solve failed: %v", err)
	}
	// The fitted values must still reproduce b closely.
	fit := a.Mul(x)
	for i := 0; i < 3; i++ {
		if !almostEqual(fit.At(i, 0), b.At(i, 0), 1e-3) {
			t.Errorf("fit[%d] = %v, want %v", i, fit.At(i, 0), b.At(i, 0))
		}
	}
}

func TestRidgeZeroFallsBack(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{2, 0}, {0, 2}})
	b := NewMatrixFromRows([][]float64{{4}, {6}})
	x, err := RidgeLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x.At(0, 0), 2, 1e-10) || !almostEqual(x.At(1, 0), 3, 1e-10) {
		t.Errorf("x = [%v %v], want [2 3]", x.At(0, 0), x.At(1, 0))
	}
}

func TestRidgeNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative lambda did not panic")
		}
	}()
	a := NewMatrix(2, 2)
	RidgeLeastSquares(a, NewMatrix(2, 1), -1)
}

// Property: for random well-conditioned systems, the residual of the
// least-squares solution is orthogonal to the column space (normal
// equations hold).
func TestLeastSquaresNormalEquationsProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		m := 6 + r.Intn(10)
		n := 2 + r.Intn(4)
		a := NewMatrix(m, n)
		b := NewMatrix(m, 1)
		for i := 0; i < m; i++ {
			b.Set(i, 0, r.NormFloat64())
			for j := 0; j < n; j++ {
				a.Set(i, j, r.NormFloat64())
			}
		}
		x, err := RidgeLeastSquares(a, b, 0)
		if err != nil {
			continue // random rank deficiency is astronomically unlikely but legal
		}
		// residual r = A*x - b; A^T r must be ~0.
		ax := a.Mul(x)
		res := make([]float64, m)
		for i := 0; i < m; i++ {
			res[i] = ax.At(i, 0) - b.At(i, 0)
		}
		atr := a.Transpose().MulVec(res)
		for j, v := range atr {
			if math.Abs(v) > 1e-8 {
				t.Fatalf("trial %d: normal equations violated at %d: %v", trial, j, v)
			}
		}
	}
}

func TestFrobeniusNorm(t *testing.T) {
	a := NewMatrixFromRows([][]float64{{3, 0}, {0, 4}})
	if !almostEqual(a.FrobeniusNorm(), 5, 1e-12) {
		t.Errorf("FrobeniusNorm = %v, want 5", a.FrobeniusNorm())
	}
}

// NewMatrixFromRows builds a matrix from row slices, which must all have the
// same non-zero length.
func NewMatrixFromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("linalg: NewMatrixFromRows of empty data")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("linalg: ragged row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Mul returns the product m * b. It panics on shape mismatch.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*b.cols : (i+1)*b.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// MulVec returns the product m * v as a new vector. It panics when len(v)
// differs from the column count.
func (m *Matrix) MulVec(v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch %dx%d * %d", m.rows, m.cols, len(v)))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, r := range row {
			s += r * v[j]
		}
		out[i] = s
	}
	return out
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// FrobeniusNorm returns sqrt(sum of squared entries).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}
