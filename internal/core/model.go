// Package core assembles the paper's full Hybrid Prediction Model: periodic
// decomposition of the training trajectory, DBSCAN frequent-region
// discovery, pruned-Apriori pattern mining, key-table construction,
// Trajectory Pattern Tree indexing, and the Hybrid Prediction Algorithm
// with its Recursive Motion Function fallback.
//
// Train once over an object's movement history, then answer predictive
// queries with Predict. The zero-configuration defaults follow the paper's
// experimental setup (§VII-A).
package core

import (
	"errors"
	"fmt"

	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/markov"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// MotionKind selects the motion-function fallback.
type MotionKind int

// Available fallback models.
const (
	MotionRMF        MotionKind = iota // Recursive Motion Function (paper default)
	MotionLinear                       // linear model (§II-A baseline)
	MotionPolynomial                   // constant-acceleration model (§II-A non-linear family)
	MotionNone                         // pattern-only prediction, no fallback
)

// String implements fmt.Stringer.
func (k MotionKind) String() string {
	switch k {
	case MotionRMF:
		return "rmf"
	case MotionLinear:
		return "linear"
	case MotionPolynomial:
		return "polynomial"
	case MotionNone:
		return "none"
	default:
		return fmt.Sprintf("MotionKind(%d)", int(k))
	}
}

// Params configures training and querying. The zero value plus a Period is
// usable and matches the paper's defaults.
type Params struct {
	// Period is T, the number of timestamps after which patterns may
	// re-appear. Required.
	Period int
	// Eps and MinPts are the DBSCAN parameters for frequent-region
	// detection. Zero values default to the paper's Eps=30, MinPts=4.
	Eps    float64
	MinPts int
	// Mining configures the Apriori stage (min support/confidence, length
	// and span caps). Zero values take pattern.Config defaults with the
	// paper's minimum confidence 0.3.
	Mining pattern.Config
	// SubTrajectories caps how many leading sub-trajectories train the
	// model; <= 0 uses all. The accuracy experiments sweep this.
	SubTrajectories int
	// HistoryWindow bounds support counting to the most recent periods:
	// when positive, Extend retires sub-trajectories older than the
	// window — their visitor bits clear, supports shrink, and patterns
	// demote or re-weigh accordingly — so model state tracks a sliding
	// window instead of all history. 0 keeps history unbounded (the
	// paper's setting).
	HistoryWindow int
	// DisableRegionDiscovery keeps the frequent-region set fixed during
	// Extend, exactly as the paper specifies: points matching no region
	// are counted in ExtendResult but never mint new regions. Exact
	// model-equivalence tests and ablations set it.
	DisableRegionDiscovery bool
	// DistantThreshold (d), TimeRelaxation (tε) and Weight configure the
	// HPA; zero values default to d=60, tε=2, linear weights.
	DistantThreshold int
	TimeRelaxation   int
	Weight           hpa.WeightFunc
	// DisablePremisePenalty turns off Equation 5's d/(tq−tc) factor in
	// BQP ranking (ablation).
	DisablePremisePenalty bool
	// MarkovOrder is the maximum context length of the region-transition
	// Markov chain (third answering path). 0 takes markov.DefaultMaxOrder;
	// a negative value disables the chain entirely, restoring the
	// two-path pattern→motion behaviour.
	MarkovOrder int
	// MarkovMinCount is the observation floor a chain context must reach
	// before it may answer; 0 takes markov.DefaultMinCount.
	MarkovMinCount int
	// Motion selects the fallback predictor; RMF configures it.
	Motion MotionKind
	RMF    motion.RMFConfig
	// Bounds clamps motion-function output; nil derives the bounds from
	// the training data's bounding box inflated by 10%.
	Bounds *geom.Rect
	// Tree tunes the TPT node capacity.
	Tree tpt.Options
}

// Paper defaults for zero Params fields.
const (
	DefaultEps    = 30.0
	DefaultMinPts = 4
)

// DefaultMinConfidence is the paper's default minimum confidence.
const DefaultMinConfidence = 0.3

func (p Params) withDefaults() Params {
	if p.Eps <= 0 {
		p.Eps = DefaultEps
	}
	if p.MinPts <= 0 {
		p.MinPts = DefaultMinPts
	}
	if p.Mining.MinConfidence <= 0 {
		p.Mining.MinConfidence = DefaultMinConfidence
	}
	// MinPts "plays the same role as support" (§IV): itemsets inherit it
	// as the default support floor.
	if p.Mining.MinSupport <= 0 {
		p.Mining.MinSupport = p.MinPts
	}
	return p
}

// Model is a trained Hybrid Prediction Model.
type Model struct {
	params  Params
	regions *pattern.RegionTable
	stats   pattern.Stats    // what Train's mining run found; see MiningStats
	encoder *pattern.Encoder // the engine's
	// engine owns the rule table, one row per ref; the model reads rules
	// through it and keeps no copy.
	engine *hpa.Engine
	bounds geom.Rect
	// chain is the Markov answering path's region-transition chain (see
	// markov.go); nil when Params.MarkovOrder < 0 disables the path.
	chain *markov.Chain

	// Incremental-training state (see extend.go). The miner is built
	// lazily on the first Extend — batch training and deserialization
	// leave it nil — and from then on tracks per-itemset support so
	// update cost scales with new data, not history. It tags each rule it
	// emits with the rule's engine ref, so its deltas name index entries.
	miner *pattern.IncrementalMiner
	// outliers buffers points no frequent region matched, per offset,
	// until enough accumulate to mint a new region. Each buffer is capped
	// (oldest evicted first) so the per-Extend discovery scan stays O(1)
	// in history; dirty marks the offsets that gained points this update,
	// the only ones a scan could newly cluster.
	outliers map[int][]pattern.UnmatchedPoint
	dirty    map[int]bool
	// retiredBelow is the sliding-window watermark: sub-trajectories
	// with index < retiredBelow no longer count toward supports.
	retiredBelow int
}

// Train builds a model from a movement history. The trajectory must span at
// least one full period.
func Train(tr *trajectory.Trajectory, params Params) (*Model, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("core: empty trajectory")
	}
	subs, err := tr.Decompose(params.Period)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return TrainSubTrajectories(subs, params)
}

// TrainSubTrajectories builds a model directly from decomposed
// sub-trajectories, which the experiment harness uses to sweep the
// training-set size cheaply.
func TrainSubTrajectories(subs []trajectory.SubTrajectory, params Params) (*Model, error) {
	if params.Period <= 0 {
		return nil, errors.New("core: Params.Period must be positive")
	}
	if len(subs) == 0 {
		return nil, errors.New("core: no sub-trajectories")
	}
	if len(subs[0].Points) != params.Period {
		return nil, fmt.Errorf("core: sub-trajectory length %d != period %d", len(subs[0].Points), params.Period)
	}
	params = params.withDefaults()

	groups := trajectory.Groups(subs, params.SubTrajectories)
	regions := pattern.DiscoverRegions(groups, params.Eps, params.MinPts)
	rules, stats := pattern.MineWithStats(regions, params.Mining)

	bounds := params.Bounds
	if bounds == nil {
		b := trainingBounds(subs, params.SubTrajectories)
		bounds = &b
	}

	m := &Model{
		params:  params,
		regions: regions,
		stats:   stats,
		bounds:  *bounds,
	}
	m.initMarkov()
	var err error
	if m.engine, err = hpa.NewEngine(regions, rules, m.engineConfig(bounds), params.Tree, nil); err != nil {
		return nil, err
	}
	m.encoder = m.engine.Encoder()
	m.foldMarkov(subs)
	return m, nil
}

// engineConfig configures m's engine: the model's query parameters, the
// motion fallback fitted within bounds, and the chain's answer when m has a
// chain (initMarkov runs first). Every path is fixed before the engine is
// shared.
func (m *Model) engineConfig(bounds *geom.Rect) hpa.Config {
	cfg := hpa.Config{
		Period:           m.params.Period,
		DistantThreshold: m.params.DistantThreshold,
		TimeRelaxation:   m.params.TimeRelaxation,
		Weight:           m.params.Weight,
		PenalizePremise:  !m.params.DisablePremisePenalty,
		NewMotion:        motionFactory(m.params, bounds),
	}
	if m.chain != nil {
		cfg.Markov = m.markovAnswer
	}
	return cfg
}

func motionFactory(params Params, bounds *geom.Rect) func() motion.Function {
	switch params.Motion {
	case MotionNone:
		return nil
	case MotionLinear:
		return func() motion.Function { return motion.NewLinear(bounds) }
	case MotionPolynomial:
		return func() motion.Function { return motion.NewPolynomial(bounds) }
	default:
		cfg := params.RMF
		if cfg.Bounds == nil {
			cfg.Bounds = bounds
		}
		return func() motion.Function { return motion.NewRMF(cfg) }
	}
}

func trainingBounds(subs []trajectory.SubTrajectory, n int) geom.Rect {
	if n <= 0 || n > len(subs) {
		n = len(subs)
	}
	r := geom.Rect{Min: subs[0].Points[0], Max: subs[0].Points[0]}
	for _, sub := range subs[:n] {
		for _, p := range sub.Points {
			r = r.ExpandPoint(p)
		}
	}
	// A 10% margin keeps legitimate extrapolation just outside the data
	// extent from being clipped.
	margin := 0.1 * (r.Width() + r.Height()) / 2
	return r.Inflate(margin)
}

// Predict answers a predictive query: given the object's recent movements
// and the absolute query time tq, return the k most probable locations.
func (m *Model) Predict(recent []trajectory.TimedPoint, tq, k int) ([]hpa.Prediction, error) {
	return m.engine.Predict(hpa.Query{Recent: recent, Tq: tq, K: k})
}

// PredictRange answers a predictive trajectory query: the object's most
// probable location at every timestamp in [from, to], in order. See
// hpa.Engine.PredictRange.
func (m *Model) PredictRange(recent []trajectory.TimedPoint, from, to int) ([]hpa.Prediction, error) {
	return m.engine.PredictRange(recent, from, to)
}

// PredictBatch answers one query per time in tqs from the same recent
// window, amortizing premise encoding and motion-function fitting across
// the batch. See hpa.Engine.PredictBatch.
func (m *Model) PredictBatch(recent []trajectory.TimedPoint, tqs []int, k int) ([][]hpa.Prediction, error) {
	return m.engine.PredictBatch(recent, tqs, k)
}

// PredictVia answers a query down one named route instead of the hybrid
// dispatch's own choice. See hpa.Engine.PredictVia.
func (m *Model) PredictVia(route hpa.Path, recent []trajectory.TimedPoint, tq, k int) ([]hpa.Prediction, error) {
	return m.engine.PredictVia(route, hpa.Query{Recent: recent, Tq: tq, K: k})
}

// NumRegions returns the number of frequent regions discovered.
func (m *Model) NumRegions() int { return m.regions.Len() }

// NumPatterns returns the number of live trajectory patterns: mined ones
// minus those incremental training has retired.
func (m *Model) NumPatterns() int { return m.engine.LivePatterns() }

// Engine returns the underlying query engine.
func (m *Model) Engine() *hpa.Engine { return m.engine }

// MiningStats returns the record of the mining run the model came from:
// the Apriori effort statistics of its Train, including the
// pruning-ablation counters. Extend changes the rule set, not this record
// (NumPatterns is the live count), and a loaded model, which mined
// nothing, returns the zero record.
func (m *Model) MiningStats() pattern.Stats { return m.stats }

// Bounds returns the world extent motion predictions are clamped to.
func (m *Model) Bounds() geom.Rect { return m.bounds }

// Params returns the training parameters after defaulting.
func (m *Model) Params() Params { return m.params }

// TreeStats returns the physical statistics of the pattern index.
func (m *Model) TreeStats() tpt.TreeStats { return m.engine.Tree().Stats() }

// QueryStats returns the accumulated query counters (how many queries ran,
// which processor answered them, TPT nodes touched).
func (m *Model) QueryStats() hpa.QueryStats { return m.engine.Stats() }
