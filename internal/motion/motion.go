// Package motion implements the vector-based prediction baselines of §II-A:
// the linear motion model used by TPR-tree-style indexes, and the Recursive
// Motion Function (RMF) of Tao, Faloutsos, Papadias and Liu (SIGMOD 2004),
// the most accurate motion function in the literature and the fallback
// predictor inside the Hybrid Prediction Algorithm.
//
// Both models are fitted on an object's recent movements only; the paper's
// central observation is that this makes them degrade sharply as the query
// time moves away from the current time, which these implementations
// faithfully exhibit.
package motion

import (
	"errors"
	"fmt"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// Function is a motion-function predictor. Fit trains on the object's
// recent movements (consecutive timestamps, ascending); Predict extrapolates
// to an absolute future timestamp.
type Function interface {
	// Name identifies the model in benchmark output.
	Name() string
	// Fit trains the model. recent must hold at least two points at
	// consecutive timestamps.
	Fit(recent []trajectory.TimedPoint) error
	// Predict returns the estimated location at time tq, which must not
	// precede the last fitted timestamp. Implementations clamp divergent
	// estimates to the configured world bounds.
	Predict(tq int) (geom.Point, error)
	// PredictEach sets out[i] to what Predict(tqs[i]) returns, for times in
	// any order, and fails where any one of them would. A model that steps
	// its way to an answer walks once, to the furthest time, instead of once
	// per time. out must be at least as long as tqs.
	PredictEach(tqs []int, out []geom.Point) error
}

// ErrNotFitted is returned by Predict before a successful Fit.
var ErrNotFitted = errors.New("motion: model not fitted")

// eachByPredict is PredictEach for the closed-form models, whose answer at
// one time is no help at another.
func eachByPredict(fn Function, tqs []int, out []geom.Point) (err error) {
	for i, tq := range tqs {
		if out[i], err = fn.Predict(tq); err != nil {
			return err
		}
	}
	return nil
}

// validateRecent checks the common Fit preconditions.
func validateRecent(recent []trajectory.TimedPoint) error {
	if len(recent) < 2 {
		return fmt.Errorf("motion: need at least 2 recent points, got %d", len(recent))
	}
	for i := 1; i < len(recent); i++ {
		if recent[i].T != recent[i-1].T+1 {
			return fmt.Errorf("motion: timestamps not consecutive at %d: %d after %d",
				i, recent[i].T, recent[i-1].T)
		}
	}
	return nil
}

// clampTo constrains p to bounds when bounds is non-nil and p is finite;
// non-finite estimates clamp to the last known location.
func clampTo(p geom.Point, bounds *geom.Rect, fallback geom.Point) geom.Point {
	if !p.IsFinite() {
		return fallback
	}
	if bounds != nil {
		return bounds.Clamp(p)
	}
	return p
}
