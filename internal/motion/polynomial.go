package motion

import (
	"hpm/internal/geom"
	"hpm/internal/linalg"
	"hpm/internal/trajectory"
)

// Polynomial is a second-degree motion model: each coordinate follows
// x(t) = a + v·t + ½·acc·t², fitted by least squares over the recent
// window. It sits between the linear model and the RMF in the paper's §II-A
// taxonomy — it captures smooth acceleration and curvature but, like every
// motion function, extrapolates poorly over long horizons (quadratics
// diverge even faster than lines, which is why the TPR-family indexes
// stick to linear motion).
type Polynomial struct {
	bounds *geom.Rect

	fitted bool
	lastT  int
	lastP  geom.Point
	// coefficients over the relative time index, per coordinate:
	// [a, v, acc/2] so that x(s) = cx[0] + cx[1]*s + cx[2]*s².
	cx, cy [3]float64
	n      int // window length used at fit time (s of the last point is n-1)
}

// NewPolynomial returns a second-degree model. bounds, when non-nil, clamps
// predictions to the world extent.
func NewPolynomial(bounds *geom.Rect) *Polynomial { return &Polynomial{bounds: bounds} }

// Name implements Function.
func (p *Polynomial) Name() string { return "Polynomial" }

// Fit implements Function. With exactly two points the quadratic is
// under-determined; the model degrades to the line through them.
func (p *Polynomial) Fit(recent []trajectory.TimedPoint) error {
	if err := validateRecent(recent); err != nil {
		return err
	}
	n := len(recent)
	if n == 2 {
		v := recent[1].Loc.Sub(recent[0].Loc)
		p.cx = [3]float64{recent[0].Loc.X, v.X, 0}
		p.cy = [3]float64{recent[0].Loc.Y, v.Y, 0}
	} else {
		a := linalg.NewMatrix(n, 3)
		b := linalg.NewMatrix(n, 2)
		for i, tp := range recent {
			s := float64(i)
			a.Set(i, 0, 1)
			a.Set(i, 1, s)
			a.Set(i, 2, s*s)
			b.Set(i, 0, tp.Loc.X)
			b.Set(i, 1, tp.Loc.Y)
		}
		// A tiny ridge guards the (possible but unusual) collinear-sample
		// degeneracy without visibly biasing the fit.
		x, err := linalg.RidgeLeastSquares(a, b, 1e-9)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			p.cx[i] = x.At(i, 0)
			p.cy[i] = x.At(i, 1)
		}
	}
	p.n = n
	p.lastT = recent[n-1].T
	p.lastP = recent[n-1].Loc
	p.fitted = true
	return nil
}

// Predict implements Function.
func (p *Polynomial) Predict(tq int) (geom.Point, error) {
	if !p.fitted {
		return geom.Point{}, ErrNotFitted
	}
	s := float64(p.n - 1 + (tq - p.lastT))
	loc := geom.Pt(
		p.cx[0]+p.cx[1]*s+p.cx[2]*s*s,
		p.cy[0]+p.cy[1]*s+p.cy[2]*s*s,
	)
	return clampTo(loc, p.bounds, p.lastP), nil
}

// PredictEach implements Function.
func (p *Polynomial) PredictEach(tqs []int, out []geom.Point) error {
	return eachByPredict(p, tqs, out)
}
