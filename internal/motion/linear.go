package motion

import (
	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// Linear is the linear motion model l(tq) = l0 + v0·(tq − t0) used by the
// TPR-tree family of predictive indexes. The velocity v0 is the
// least-squares velocity over the fitted window, which is the standard
// robust estimate when updates are noisy.
type Linear struct {
	bounds *geom.Rect

	fitted bool
	lastT  int
	anchor geom.Point // fitted position at lastT
	vel    geom.Point // fitted velocity per timestamp
	lastP  geom.Point // last observed location (clamp fallback)
}

// NewLinear returns a linear model. bounds, when non-nil, clamps
// predictions to the world extent.
func NewLinear(bounds *geom.Rect) *Linear { return &Linear{bounds: bounds} }

// Name implements Function.
func (l *Linear) Name() string { return "Linear" }

// Fit implements Function by fitting x(t) and y(t) lines by least squares.
func (l *Linear) Fit(recent []trajectory.TimedPoint) error {
	if err := validateRecent(recent); err != nil {
		return err
	}
	n := float64(len(recent))
	// Regress against the relative time index 0..n-1 for conditioning.
	var sumT, sumTT, sumX, sumY, sumTX, sumTY float64
	for i, tp := range recent {
		t := float64(i)
		sumT += t
		sumTT += t * t
		sumX += tp.Loc.X
		sumY += tp.Loc.Y
		sumTX += t * tp.Loc.X
		sumTY += t * tp.Loc.Y
	}
	den := n*sumTT - sumT*sumT // zero only when n < 2, excluded above
	vx := (n*sumTX - sumT*sumX) / den
	vy := (n*sumTY - sumT*sumY) / den
	cx := (sumX - vx*sumT) / n
	cy := (sumY - vy*sumT) / n

	l.lastT = recent[len(recent)-1].T
	l.vel = geom.Pt(vx, vy)
	// Anchor at the fitted value of the last timestamp, not the noisy
	// observation, so the extrapolation line is continuous with the fit.
	l.anchor = geom.Pt(cx+vx*(n-1), cy+vy*(n-1))
	l.lastP = recent[len(recent)-1].Loc
	l.fitted = true
	return nil
}

// Predict implements Function.
func (l *Linear) Predict(tq int) (geom.Point, error) {
	if !l.fitted {
		return geom.Point{}, ErrNotFitted
	}
	dt := float64(tq - l.lastT)
	p := l.anchor.Add(l.vel.Scale(dt))
	return clampTo(p, l.bounds, l.lastP), nil
}

// PredictEach implements Function.
func (l *Linear) PredictEach(tqs []int, out []geom.Point) error {
	return eachByPredict(l, tqs, out)
}
