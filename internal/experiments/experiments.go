// Package experiments regenerates every figure of the paper's evaluation
// (§VII) plus the ablation studies DESIGN.md calls out. Each experiment
// returns Figures — labeled series of (x, y) points — that cmd/hpmbench
// prints as tables and bench_test.go smoke-runs in quick mode.
//
// The harness follows the paper's setup: four synthetic datasets
// (Bike/Cow/Car/Airplane), period T = 300, 60 training sub-trajectories,
// k = 1, d = 60, Eps = 30, MinPts = 4, minimum confidence 0.3, errors
// averaged over 50 queries (30 for timing), against an RMF baseline.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"hpm/internal/core"
	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/trajectory"
)

// Options tunes an experiment run.
type Options struct {
	// Quick shrinks every sweep and workload so the whole suite runs in
	// seconds: used by benchmarks and smoke tests. Full mode reproduces
	// the paper's parameters.
	Quick bool
	// Seed makes runs reproducible; 0 means 1.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// Series is one labeled line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is one plot of the paper: labeled series over a shared x-axis.
type Figure struct {
	ID     string // e.g. "fig5-bike"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// WriteTable renders the figure as an aligned text table, one x per row.
func (f Figure) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "# %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(w, "# %-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %16s", s.Name)
	}
	fmt.Fprintf(w, "   (%s)\n", f.YLabel)
	if len(f.Series) == 0 {
		return
	}
	for i := range f.Series[0].X {
		fmt.Fprintf(w, "  %-14g", f.Series[0].X[i])
		for _, s := range f.Series {
			if i < len(s.Y) {
				fmt.Fprintf(w, " %16.2f", s.Y[i])
			} else {
				fmt.Fprintf(w, " %16s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	Name        string
	Description string
	// Paper marks the fourteen experiments of the paper's evaluation and
	// its ablations, the ones results_full.txt records. They measure the
	// paper's model; the others measure the serving extensions.
	Paper bool
	Run   func(Options) []Figure
}

// registry holds all experiments keyed by name.
var registry = map[string]Experiment{}

// register registers one of the paper's experiments.
func register(name, desc string, run func(Options) []Figure) {
	registry[name] = Experiment{Name: name, Description: desc, Paper: true, Run: run}
}

// registerExtension registers an experiment of a serving extension.
func registerExtension(name, desc string, run func(Options) []Figure) {
	registry[name] = Experiment{Name: name, Description: desc, Run: run}
}

// Names returns the registered experiment names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperNames returns the names of the paper's experiments, sorted.
func PaperNames() []string {
	var names []string
	for _, n := range Names() {
		if registry[n].Paper {
			names = append(names, n)
		}
	}
	return names
}

// Get looks up an experiment by name.
func Get(name string) (Experiment, bool) {
	e, ok := registry[name]
	return e, ok
}

// sizes bundles the scale parameters that differ between quick and full
// mode.
type sizes struct {
	period    int
	trainSubs int
	querySubs int
	queries   int // accuracy queries per configuration
	timingQ   int // timing queries per configuration
	recentW   int // recent-movement window supplied to queries
}

func scale(o Options) sizes {
	if o.Quick {
		return sizes{period: 120, trainSubs: 25, querySubs: 8, queries: 12, timingQ: 8, recentW: 10}
	}
	// The paper: T=300, 60 sub-trajectories, 50 accuracy / 30 timing
	// queries. The recent-movement window supplied to queries is what the
	// per-query RMF trains on; the paper charges RMF an O(n³) model
	// construction over it.
	return sizes{period: 300, trainSubs: 60, querySubs: 20, queries: 50, timingQ: 30, recentW: 60}
}

// env is one dataset's generated data plus its train/query split.
type env struct {
	kind datagen.Kind
	spec datagen.Spec
	subs []trajectory.SubTrajectory
	sz   sizes
	// chain keeps the Markov path in the models train builds. The paper's
	// model answers from patterns and the motion function only, so its
	// experiments leave it off; retrain measures the served model.
	chain bool
}

// newEnv generates a dataset with trainSubs+querySubs days (or more when
// extraTrain demands a bigger training pool, e.g. the Figure 6 sweep).
func newEnv(kind datagen.Kind, o Options, extraTrain int) *env {
	sz := scale(o)
	if extraTrain > sz.trainSubs {
		sz.trainSubs = extraTrain
	}
	spec := datagen.DefaultSpec(kind, o.Seed)
	spec.Period = sz.period
	spec.SubTrajectories = sz.trainSubs + sz.querySubs
	tr := datagen.Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err)) // sizes guarantee validity
	}
	return &env{kind: kind, spec: spec, subs: subs, sz: sz}
}

// train builds an HPM over the first n training days (n <= 0: all).
func (e *env) train(params core.Params, n int) *core.Model {
	if params.Period == 0 {
		params.Period = e.spec.Period
	}
	params.SubTrajectories = 0
	if !e.chain {
		params.MarkovOrder = -1
	}
	// The fallback inside HPM is the same self-training RMF as the
	// standalone baseline, so the cost and accuracy comparisons are fair.
	if params.Motion == core.MotionRMF && params.RMF == (motion.RMFConfig{}) {
		params.RMF = baselineRMFConfig()
	}
	train := e.subs[:e.sz.trainSubs]
	if n > 0 && n < len(train) {
		train = train[:n]
	}
	m, err := core.TrainSubTrajectories(train, params)
	if err != nil {
		panic(fmt.Sprintf("experiments: train: %v", err))
	}
	return m
}

// queryCase fixes one evaluation query: a held-out day and the current
// offset within it.
type queryCase struct {
	day   int // index into e.subs, >= trainSubs
	tcOff int
}

// queryCases draws n reproducible queries whose horizon predLen stays
// inside the period.
func (e *env) queryCases(n, predLen int, rng *rand.Rand) []queryCase {
	maxTc := e.spec.Period - 1 - predLen
	minTc := e.sz.recentW // room for the recent window
	if maxTc <= minTc {
		maxTc = minTc + 1
	}
	cases := make([]queryCase, n)
	for i := range cases {
		cases[i] = queryCase{
			day:   e.sz.trainSubs + rng.Intn(e.sz.querySubs),
			tcOff: minTc + rng.Intn(maxTc-minTc),
		}
	}
	return cases
}

// recent returns the query's recent movements with absolute timestamps.
func (e *env) recent(qc queryCase) []trajectory.TimedPoint {
	base := qc.day * e.spec.Period
	pts := make([]trajectory.TimedPoint, 0, e.sz.recentW)
	for off := qc.tcOff - e.sz.recentW + 1; off <= qc.tcOff; off++ {
		pts = append(pts, trajectory.TimedPoint{T: base + off, Loc: e.subs[qc.day].Points[off]})
	}
	return pts
}

// truth returns the actual location predLen timestamps after the query's
// current time.
func (e *env) truth(qc queryCase, predLen int) geom.Point {
	return e.subs[qc.day].Points[qc.tcOff+predLen]
}

// tq returns the absolute query time.
func (e *env) tq(qc queryCase, predLen int) int {
	return qc.day*e.spec.Period + qc.tcOff + predLen
}

// hpmError averages the model's prediction error over the cases.
func (e *env) hpmError(m *core.Model, cases []queryCase, predLen int) float64 {
	var total float64
	for _, qc := range cases {
		preds, err := m.Predict(e.recent(qc), e.tq(qc, predLen), 1)
		if err != nil {
			panic(fmt.Sprintf("experiments: predict: %v", err))
		}
		loc := e.recent(qc)[e.sz.recentW-1].Loc // last known, if nothing answers
		if len(preds) > 0 {
			loc = preds[0].Location
		}
		total += loc.Dist(e.truth(qc, predLen))
	}
	return total / float64(len(cases))
}

// predictions returns the model's top-1 location per case (last known
// location when nothing answers), for prediction-agreement comparisons.
func (e *env) predictions(m *core.Model, cases []queryCase, predLen int) []geom.Point {
	out := make([]geom.Point, len(cases))
	for i, qc := range cases {
		preds, err := m.Predict(e.recent(qc), e.tq(qc, predLen), 1)
		if err != nil {
			panic(fmt.Sprintf("experiments: predict: %v", err))
		}
		if len(preds) > 0 {
			out[i] = preds[0].Location
		} else {
			out[i] = e.recent(qc)[len(e.recent(qc))-1].Loc
		}
	}
	return out
}

// disagreementPct returns the percentage of cases where two top-1
// prediction sets differ.
func disagreementPct(a, b []geom.Point) float64 {
	if len(a) == 0 {
		return 0
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return 100 * float64(diff) / float64(len(a))
}

// motionError averages a pure motion-function baseline over the cases.
func (e *env) motionError(newFn func() motion.Function, cases []queryCase, predLen int) float64 {
	var total float64
	for _, qc := range cases {
		fn := newFn()
		recent := e.recent(qc)
		loc := recent[len(recent)-1].Loc
		if err := fn.Fit(recent); err == nil {
			if p, err := fn.Predict(e.tq(qc, predLen)); err == nil {
				loc = p
			}
		}
		total += loc.Dist(e.truth(qc, predLen))
	}
	return total / float64(len(cases))
}

// bounds returns the generator's world extent.
func (e *env) bounds() geom.Rect { return datagen.Extent }

// datasetsFor returns the datasets an experiment sweeps: all four in full
// mode, the two pattern-strength extremes (Bike, Airplane) in quick mode.
func datasetsFor(o Options) []datagen.Kind {
	if o.Quick {
		return []datagen.Kind{datagen.Bike, datagen.Airplane}
	}
	return datagen.Kinds
}

// baselineRMFConfig is the paper-faithful RMF: self-training retrospect
// selection over the query's full recent window, clamped to the data
// extent.
func baselineRMFConfig() motion.RMFConfig {
	bounds := datagen.Extent
	return motion.RMFConfig{
		Retrospect:     8,
		Window:         120,
		AutoRetrospect: true,
		Bounds:         &bounds,
	}
}

// rmfBaseline returns the RMF factory for the standalone baseline of every
// accuracy and cost comparison.
func rmfBaseline() func() motion.Function {
	cfg := baselineRMFConfig()
	return func() motion.Function { return motion.NewRMF(cfg) }
}
