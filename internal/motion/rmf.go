package motion

import (
	"cmp"
	"fmt"
	"slices"

	"hpm/internal/geom"
	"hpm/internal/linalg"
	"hpm/internal/trajectory"
)

// RMFConfig tunes the Recursive Motion Function.
type RMFConfig struct {
	// Retrospect is f, the number of past locations the recurrence
	// l_t = Σ_{i=1..f} C_i · l_{t-i} looks back on. Values <= 0 default to
	// DefaultRetrospect. When the fitted window is too short for f, the
	// retrospect degrades automatically to the largest feasible value.
	Retrospect int
	// Window is the number of recent locations used to estimate the C_i
	// matrices. Values <= 0 default to DefaultWindow.
	Window int
	// Ridge is the regularization weight relative to the squared data
	// scale; it repairs the exact rank deficiency of stationary objects.
	// Values <= 0 default to DefaultRidge.
	Ridge float64
	// AutoRetrospect selects the retrospect per Fit by holdout
	// validation: candidate depths are each fitted on the head of the
	// window, scored on the tail, and the winner is refitted on the whole
	// window. This mirrors the original RMF's self-training, which is
	// what makes its per-query cost high (the HPM paper charges RMF an
	// O(n³) model construction per prediction). When set, Retrospect
	// serves as the upper bound on the candidate depths.
	AutoRetrospect bool
	// Bounds, when non-nil, clamps predictions to the world extent —
	// iterating the recurrence hundreds of steps ahead can diverge, and
	// an unbounded estimate would dominate every error average.
	Bounds *geom.Rect
}

// Defaults for RMFConfig fields left at their zero value.
const (
	DefaultRetrospect = 5
	DefaultWindow     = 30
	DefaultRidge      = 1e-9
)

func (c RMFConfig) withDefaults() RMFConfig {
	if c.Retrospect <= 0 {
		c.Retrospect = DefaultRetrospect
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Ridge <= 0 {
		c.Ridge = DefaultRidge
	}
	return c
}

// RMF is the Recursive Motion Function: each location is a fixed linear
// combination of the f most recent locations, with the 2x2 coefficient
// matrices C_i estimated from the recent window by regularized least
// squares. Prediction iterates the recurrence forward timestamp by
// timestamp. The original presentation estimates the same regression with
// an O(n³) SVD; Householder QR solves it in the same cost class.
type RMF struct {
	cfg RMFConfig

	fitted bool
	f      int          // effective retrospect after degradation
	coef   []float64    // (2f)x2 stacked [C_1; ...; C_f] transposed blocks, row-major
	hist   []geom.Point // last f locations, oldest first
	lastT  int
	lastP  geom.Point
}

// NewRMF returns an RMF with the given configuration.
func NewRMF(cfg RMFConfig) *RMF { return &RMF{cfg: cfg.withDefaults()} }

// Name implements Function.
func (r *RMF) Name() string { return "RMF" }

// Fit implements Function. It estimates the coefficient matrices from up to
// Window trailing points of recent; with fewer than retrospect+1 points the
// retrospect degrades, and with only two points the model collapses to the
// last observed velocity (handled by a retrospect of 1). With
// AutoRetrospect set, candidate depths 1..Retrospect are validated on the
// window's tail first.
func (r *RMF) Fit(recent []trajectory.TimedPoint) error {
	if err := validateRecent(recent); err != nil {
		return err
	}
	if len(recent) > r.cfg.Window {
		recent = recent[len(recent)-r.cfg.Window:]
	}
	f := r.cfg.Retrospect
	if r.cfg.AutoRetrospect {
		f = r.selectRetrospect(recent)
	}
	return r.fitFixed(recent, f)
}

// feasibleRetrospect degrades f so the regression keeps at least one row,
// preferring an overdetermined system with n - f >= 2f.
func feasibleRetrospect(n, f int) int {
	for f > 1 && n-f < f {
		f--
	}
	if n-f < 1 {
		f = n - 1
	}
	return f
}

// selectRetrospect scores each candidate depth by fitting on the window's
// head and predicting its tail, returning the depth with the least holdout
// error. This is the expensive self-training the paper attributes to RMF.
func (r *RMF) selectRetrospect(recent []trajectory.TimedPoint) int {
	holdout := len(recent) / 5
	if holdout < 2 {
		holdout = 2
	}
	if holdout > 10 {
		holdout = 10
	}
	train := recent[:len(recent)-holdout]
	if len(train) < 3 {
		return r.cfg.Retrospect
	}
	best := r.cfg.Retrospect
	bestErr := -1.0
	for f := 1; f <= r.cfg.Retrospect; f++ {
		sub := NewRMF(RMFConfig{
			Retrospect: f, Window: r.cfg.Window,
			Ridge: r.cfg.Ridge, Bounds: r.cfg.Bounds,
		})
		if err := sub.fitFixed(train, feasibleRetrospect(len(train), f)); err != nil {
			continue
		}
		var total float64
		ok := true
		for i := len(train); i < len(recent); i++ {
			p, err := sub.Predict(recent[i].T)
			if err != nil {
				ok = false
				break
			}
			total += p.Dist(recent[i].Loc)
		}
		if ok && (bestErr < 0 || total < bestErr) {
			best, bestErr = f, total
		}
	}
	return best
}

// fitFixed estimates the coefficients for a fixed retrospect (degraded to
// feasibility) over the already-windowed recent points.
func (r *RMF) fitFixed(recent []trajectory.TimedPoint, f int) error {
	n := len(recent)
	f = feasibleRetrospect(n, f)

	m := n - f // regression rows
	a := linalg.NewMatrix(m, 2*f)
	b := linalg.NewMatrix(m, 2)
	ad, bd := a.Data(), b.Data()
	scale := 0.0
	for row := 0; row < m; row++ {
		t := row + f
		ar := ad[row*2*f : (row+1)*2*f]
		for i := 1; i <= f; i++ {
			p := recent[t-i].Loc
			ar[2*(i-1)], ar[2*(i-1)+1] = p.X, p.Y
			if ax := abs(p.X); ax > scale {
				scale = ax
			}
			if ay := abs(p.Y); ay > scale {
				scale = ay
			}
		}
		bd[2*row], bd[2*row+1] = recent[t].Loc.X, recent[t].Loc.Y
	}
	lambda := r.cfg.Ridge * scale * scale
	if lambda <= 0 {
		lambda = r.cfg.Ridge
	}
	coef, err := linalg.RidgeLeastSquares(a, b, lambda)
	if err != nil {
		return fmt.Errorf("motion: RMF fit: %w", err)
	}

	r.f = f
	r.coef = coef.Data()
	r.hist = make([]geom.Point, f)
	for i := 0; i < f; i++ {
		r.hist[i] = recent[n-f+i].Loc
	}
	r.lastT = recent[n-1].T
	r.lastP = recent[n-1].Loc
	r.fitted = true
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Predict implements Function: the one-time case of PredictEach.
func (r *RMF) Predict(tq int) (geom.Point, error) {
	var out [1]geom.Point
	err := r.PredictEach([]int{tq}, out[:])
	return out[0], err
}

// PredictEach implements Function by iterating the recurrence once, from the
// last fitted timestamp to the furthest of tqs, and answering every time as
// the walk passes it.
func (r *RMF) PredictEach(tqs []int, out []geom.Point) error {
	if !r.fitted {
		return ErrNotFitted
	}
	// order names tqs' entries in ascending time; ascending input — a
	// trajectory, the fleet index's horizons — needs none.
	var order []int32
	if !slices.IsSorted(tqs) {
		order = make([]int32, len(tqs))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(tqs[a], tqs[b]) })
	}
	// The recurrence reads its last f locations through a window sliding
	// along win, moved back to the front when it reaches the end: one copy
	// per lap in place of a shift per step.
	var buf [32]geom.Point
	f, win, pos := r.f, buf[:], 0
	if len(win) <= f {
		win = make([]geom.Point, 4*f)
	}
	copy(win, r.hist)
	t, p, diverged := r.lastT, r.lastP, false
	for j := range tqs {
		i := j
		if order != nil {
			i = int(order[j])
		}
		tq := tqs[i]
		if tq <= r.lastT {
			if tq < r.lastT {
				return fmt.Errorf("motion: query time %d precedes current time %d", tq, r.lastT)
			}
			out[i] = r.lastP
			continue
		}
		for ; t < tq && !diverged; t++ {
			if pos+f == len(win) {
				copy(win, win[pos:])
				pos = 0
			}
			p = r.step(win[pos : pos+f])
			// Diverged: freeze at the clamped fallback for the remaining
			// horizon — iterating further only produces more non-finites.
			diverged = !p.IsFinite()
			win[pos+f] = p
			pos++
		}
		out[i] = clampTo(p, r.cfg.Bounds, r.lastP)
	}
	return nil
}

// step evaluates l_t = Σ C_i · l_{t-i} with hist holding the f previous
// locations oldest-first.
func (r *RMF) step(hist []geom.Point) geom.Point {
	var x, y float64
	f, c := r.f, r.coef
	for i := 1; i <= f; i++ {
		p := hist[f-i]
		row := 4 * (i - 1) // rows 2(i-1) and 2(i-1)+1 of two columns each
		x += p.X*c[row] + p.Y*c[row+2]
		y += p.X*c[row+1] + p.Y*c[row+3]
	}
	return geom.Pt(x, y)
}

// Retrospect returns the effective retrospect after any degradation during
// the last Fit, or 0 before fitting. Exposed for tests and diagnostics.
func (r *RMF) Retrospect() int { return r.f }
