// Package hpm is a Go implementation of the Hybrid Prediction Model for
// moving objects (Jeung, Liu, Shen, Zhou — ICDE 2008).
//
// Given an object's movement history sampled at regular timestamps, hpm
// mines the object's periodic trajectory patterns (dense frequent regions
// per time-of-period offset, linked into association rules), indexes them
// in a Trajectory Pattern Tree, and answers predictive queries — "where
// will the object be at time tq?" — by combining the patterns with a
// Recursive Motion Function fitted to the object's recent movements:
//
//   - Near-future queries use Forward Query Processing: patterns whose
//     premise matches the recently visited regions and whose consequence
//     offset equals the query offset, ranked by premise similarity ×
//     confidence.
//   - Distant-future queries use Backward Query Processing: the premise
//     constraint is relaxed and patterns around the query time win,
//     because where the object usually is at 4 p.m. beats extrapolating
//     this morning's velocity.
//   - When no pattern qualifies, the motion function answers.
//
// # Quick start
//
//	tr := hpm.NewTrajectory(points)          // one location per timestamp
//	p, err := hpm.Train(tr, hpm.Config{Period: 300})
//	preds, err := p.Predict(recent, tq, 1)   // recent: last few TimedPoints
//
// See examples/ for complete programs and DESIGN.md for the system map.
package hpm

import (
	"fmt"
	"io"

	"hpm/internal/core"
	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// Point is a location in the plane.
type Point = geom.Point

// Rect is an axis-aligned rectangle, used for world bounds.
type Rect = geom.Rect

// Pt is shorthand for Point{X: x, Y: y}.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// Trajectory is a movement history with one location per integer timestamp.
type Trajectory = trajectory.Trajectory

// TimedPoint is a location stamped with its absolute timestamp; queries
// supply the object's recent movements in this form.
type TimedPoint = trajectory.TimedPoint

// NewTrajectory wraps a location slice (one point per timestamp, starting
// at timestamp 0) as a Trajectory.
func NewTrajectory(points []Point) *Trajectory { return trajectory.New(points) }

// ReadTrajectoryCSV parses "t,x,y" rows into a Trajectory.
func ReadTrajectoryCSV(r io.Reader) (*Trajectory, error) { return trajectory.ReadCSV(r) }

// DetectPeriod estimates the pattern period T — the library's one required
// parameter — from the data itself, by scoring how well positions align
// with themselves at each candidate lag in [minPeriod, maxPeriod]. The
// trajectory must cover at least two maxPeriod cycles. Objects that repeat
// only some of the time (the paper's follow probability) are handled by
// scoring the best-aligned quartile of samples.
func DetectPeriod(tr *Trajectory, minPeriod, maxPeriod int) (int, error) {
	return trajectory.DetectPeriod(tr, minPeriod, maxPeriod)
}

// Prediction is one predicted location with its provenance: the ranking
// score Sp, the pattern confidence, and whether a trajectory pattern or the
// motion-function fallback produced it.
type Prediction = hpa.Prediction

// Source tells how a prediction was produced.
type Source = hpa.Source

// Prediction sources.
const (
	SourcePattern = hpa.SourcePattern
	SourceMotion  = hpa.SourceMotion
	SourceMarkov  = hpa.SourceMarkov
)

// Path tells which branch of the hybrid algorithm answered a query: FQP
// for near queries, BQP for distant ones, the Markov region-transition
// chain, or the motion-function fallback.
type Path = hpa.Path

// Answering paths.
const (
	PathForward  = hpa.PathForward
	PathBackward = hpa.PathBackward
	PathFallback = hpa.PathFallback
	PathMarkov   = hpa.PathMarkov
)

// Paths returns every answering path, in persisted-index order. Exporters
// and stats consumers iterate this registry instead of hand-enumerating
// path labels, so adding a path cannot silently desynchronize them.
func Paths() []Path { return hpa.Paths() }

// WeightFunc selects the premise-similarity weight function of §VI-A.
type WeightFunc = hpa.WeightFunc

// The four weight functions; the paper found linear and quadratic best.
const (
	WeightLinear      = hpa.WeightLinear
	WeightQuadratic   = hpa.WeightQuadratic
	WeightExponential = hpa.WeightExponential
	WeightFactorial   = hpa.WeightFactorial
)

// MotionKind selects the motion-function fallback model.
type MotionKind = core.MotionKind

// Available fallbacks.
const (
	MotionRMF        = core.MotionRMF
	MotionLinear     = core.MotionLinear
	MotionPolynomial = core.MotionPolynomial
	MotionNone       = core.MotionNone
)

// Config configures training and querying. Only Period is required; every
// other zero value takes the paper's experimental default (§VII-A):
// Eps 30, MinPts 4, minimum confidence 0.3, distant threshold d = 60,
// time relaxation tε = 2, linear weights, RMF fallback.
type Config struct {
	// Period is T, the number of timestamps after which patterns may
	// re-appear — "a day" of samples for commuter traffic, "a year" for
	// migration. Required.
	Period int

	// Eps and MinPts control DBSCAN frequent-region detection; they play
	// the role of the support threshold in frequent-itemset mining.
	Eps    float64
	MinPts int

	// MinSupport is the minimum number of sub-trajectories exhibiting a
	// pattern; MinConfidence is the association-rule confidence floor.
	MinSupport    int
	MinConfidence float64

	// MaxPatternLength caps regions per pattern (consequence included);
	// PremiseSpan caps the offset distance covered by a premise; and
	// ConsequenceReach caps how far beyond a multi-region premise its
	// consequence may lie (negative = unlimited). All three bound the
	// Apriori search.
	MaxPatternLength int
	PremiseSpan      int
	ConsequenceReach int

	// CountUnprunedRules additionally counts the rules classic Apriori
	// would generate, enabling PatternReduction at extra training cost.
	CountUnprunedRules bool

	// SubTrajectories caps how many leading periods are mined; <= 0 uses
	// the whole history.
	SubTrajectories int

	// RetainPeriods bounds the history that counts toward pattern
	// supports: when positive, Extend retires periods older than the
	// window, so the model tracks a sliding window of recent behavior
	// (and a store trims each object's track to match, keeping memory
	// flat on endless streams). 0 keeps history unbounded (the paper's
	// setting).
	RetainPeriods int

	// DisableRegionDiscovery keeps the frequent-region set fixed during
	// Extend, exactly as the paper specifies: unmatched points are
	// counted but never mint new regions.
	DisableRegionDiscovery bool

	// DistantThreshold is d: queries at least this far ahead of the
	// current time use Backward Query Processing. TimeRelaxation is tε,
	// BQP's base window radius. Weight selects the premise weighting.
	DistantThreshold int
	TimeRelaxation   int
	Weight           WeightFunc

	// Motion selects the fallback predictor; Retrospect and MotionWindow
	// configure the RMF (recurrence depth f and fitting window).
	Motion       MotionKind
	Retrospect   int
	MotionWindow int

	// MarkovOrder is the maximum context length of the Markov
	// region-transition chain, the third answering path: 0 takes the
	// default (order 3), negative disables the chain. MarkovMinCount is
	// the observation floor a chain context needs before it may answer
	// (0 = default 2). The chain's sliding-window decay follows
	// RetainPeriods.
	MarkovOrder    int
	MarkovMinCount int

	// Bounds clamps motion-function output; nil derives bounds from the
	// training data with a 10% margin.
	Bounds *Rect
}

func (c Config) toParams() core.Params {
	return core.Params{
		Period: c.Period,
		Eps:    c.Eps,
		MinPts: c.MinPts,
		Mining: pattern.Config{
			MinSupport:       c.MinSupport,
			MinConfidence:    c.MinConfidence,
			MaxLength:        c.MaxPatternLength,
			PremiseSpan:      c.PremiseSpan,
			CountUnpruned:    c.CountUnprunedRules,
			ConsequenceReach: c.ConsequenceReach,
		},
		SubTrajectories:        c.SubTrajectories,
		HistoryWindow:          c.RetainPeriods,
		DisableRegionDiscovery: c.DisableRegionDiscovery,
		DistantThreshold:       c.DistantThreshold,
		TimeRelaxation:         c.TimeRelaxation,
		Weight:                 c.Weight,
		MarkovOrder:            c.MarkovOrder,
		MarkovMinCount:         c.MarkovMinCount,
		Motion:                 c.Motion,
		RMF: motion.RMFConfig{
			Retrospect: c.Retrospect,
			Window:     c.MotionWindow,
			Bounds:     c.Bounds,
		},
		Bounds: c.Bounds,
	}
}

// Predictor is a trained Hybrid Prediction Model.
type Predictor struct {
	model *core.Model
}

// Train mines the trajectory's patterns and builds a ready predictor. The
// trajectory must span at least one full period.
func Train(tr *Trajectory, cfg Config) (*Predictor, error) {
	m, err := core.Train(tr, cfg.toParams())
	if err != nil {
		return nil, err
	}
	return &Predictor{model: m}, nil
}

// TrainPoints is Train over a raw location slice.
func TrainPoints(points []Point, cfg Config) (*Predictor, error) {
	return Train(NewTrajectory(points), cfg)
}

// Predict estimates the object's location at absolute time tq from its
// recent movements, returning up to k predictions ranked by probability.
// A prediction's Source tells whether a trajectory pattern or the motion
// function produced it.
func (p *Predictor) Predict(recent []TimedPoint, tq, k int) ([]Prediction, error) {
	return p.model.Predict(recent, tq, k)
}

// ExtendResult reports what an incremental Extend changed.
type ExtendResult = core.ExtendResult

// Extend absorbs newly accumulated movement without retraining (§V-B
// dynamic data, extended): points must cover whole periods (len divisible
// by Period). The new days are assigned to the existing frequent regions,
// and only the patterns whose support they touch are re-evaluated — newly
// qualifying patterns insert into the live index, demoted ones retire,
// changed confidences rewrite in place, so update cost tracks the new
// data rather than the full history. Points matching no region buffer
// toward minting new frequent regions (see
// Config.DisableRegionDiscovery), and Config.RetainPeriods bounds the
// history that counts toward supports.
func (p *Predictor) Extend(points []Point) (ExtendResult, error) {
	period := p.model.Params().Period
	tr := NewTrajectory(points)
	if tr.Len() == 0 || tr.Len()%period != 0 {
		return ExtendResult{}, fmt.Errorf("hpm: Extend needs whole periods: %d points, period %d", tr.Len(), period)
	}
	subs, err := tr.Decompose(period)
	if err != nil {
		return ExtendResult{}, err
	}
	return p.model.Extend(subs)
}

// PredictRange estimates the object's whole future trajectory over the
// timestamp range [from, to] (inclusive), one prediction per timestamp.
// Near timestamps use Forward Query Processing, distant ones Backward
// Query Processing, and the motion function fills gaps — fitted once for
// the whole range.
func (p *Predictor) PredictRange(recent []TimedPoint, from, to int) ([]Prediction, error) {
	return p.model.PredictRange(recent, from, to)
}

// PredictBatch answers one query per entry of tqs from the same recent
// window, returning up to k ranked predictions per time in input order.
// The recent movements are encoded once and the motion fallback, when any
// time needs it, is fitted once and shared — so a batch of m queries costs
// one premise encoding and at most one model construction instead of m of
// each. Times nothing can answer yield a nil entry. Safe for concurrent
// use alongside other queries.
func (p *Predictor) PredictBatch(recent []TimedPoint, tqs []int, k int) ([][]Prediction, error) {
	return p.model.PredictBatch(recent, tqs, k)
}

// PredictVia answers a query down one named route instead of the hybrid
// dispatch's own choice: PathFallback is the motion function alone — the
// baseline the paper's accuracy figures compare against — PathMarkov the
// region-transition chain (motion when it declines), PathForward or
// PathBackward the pattern dispatch, exactly Predict. Exposed so callers can
// shadow-score each path online.
func (p *Predictor) PredictVia(route Path, recent []TimedPoint, tq, k int) ([]Prediction, error) {
	return p.model.PredictVia(route, recent, tq, k)
}

// MarkovObserve folds one acknowledged observation at absolute time t
// into the Markov chain. A no-op when the chain is disabled.
func (p *Predictor) MarkovObserve(t int, pt Point) { p.model.MarkovObserve(t, pt) }

// IsDistant reports whether a query at time tq, issued when the object's
// current time is tc, dispatches to Backward Query Processing
// (Definition 2: tq - tc >= the distant-time threshold d).
func (p *Predictor) IsDistant(tc, tq int) bool {
	return p.model.Engine().IsDistant(tc, tq)
}

// Save serializes the trained predictor to a versioned binary stream:
// parameters, world bounds, the frequent-region table (with visitor
// bitmaps, so Extend keeps working after a reload), the pattern list and
// the shape of the pattern index, which Load lays out again as it was.
func (p *Predictor) Save(w io.Writer) error { return p.model.Save(w) }

// Load deserializes a predictor written by this version's Save; any other
// stream version is refused by number.
func Load(r io.Reader) (*Predictor, error) {
	m, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Predictor{model: m}, nil
}

// Explanation unpacks the trajectory pattern behind a prediction.
type Explanation = core.Explanation

// RegionInfo describes one frequent region in an Explanation.
type RegionInfo = core.RegionInfo

// Explain returns the rule behind a pattern prediction — the frequent
// regions its premise expects, the consequence region, and the confidence.
// The boolean is false for motion-function predictions.
func (p *Predictor) Explain(pred Prediction) (Explanation, bool) {
	return p.model.Explain(pred)
}

// QueryStats counts what the predictor did: queries answered, by which
// query processor (forward, backward, motion fallback), and index nodes
// touched.
type QueryStats = hpa.QueryStats

// QueryStats returns the accumulated query counters.
func (p *Predictor) QueryStats() QueryStats { return p.model.QueryStats() }

// NumPatterns returns how many trajectory patterns were mined.
func (p *Predictor) NumPatterns() int { return p.model.NumPatterns() }

// NumRegions returns how many frequent regions were discovered.
func (p *Predictor) NumRegions() int { return p.model.NumRegions() }

// PatternReduction returns the percentage of rules eliminated by the
// pruning (requires Config.CountUnprunedRules; 0 otherwise) relative to
// classic Apriori rule generation.
func (p *Predictor) PatternReduction() float64 {
	return p.model.MiningStats().ReductionPct()
}

// IndexBytes returns the packed storage footprint of the Trajectory
// Pattern Tree.
func (p *Predictor) IndexBytes() int { return p.model.TreeStats().StorageBytes }

// Bounds returns the world extent motion-function output is clamped to.
func (p *Predictor) Bounds() Rect { return p.model.Bounds() }

// Model exposes the underlying core model for advanced use (region tables,
// pattern inspection, the raw query engine).
func (p *Predictor) Model() *core.Model { return p.model }
