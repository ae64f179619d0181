package hpa

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"hpm/internal/bitkey"
	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// Source tells how a prediction was produced.
type Source int

// Prediction sources.
const (
	SourcePattern Source = iota // a trajectory pattern's consequence center
	SourceMotion                // the motion-function fallback
	SourceMarkov                // the variable-order region-transition chain
)

// String implements fmt.Stringer.
func (s Source) String() string {
	switch s {
	case SourcePattern:
		return "pattern"
	case SourceMarkov:
		return "markov"
	default:
		return "motion"
	}
}

// Path identifies which branch of the Hybrid Prediction Algorithm produced
// a prediction. Source says *what kind* of answer it is (pattern vs motion);
// Path says *which query procedure* chose it — the distinction the paper's
// accuracy figures are sliced by, and what the online evaluator aggregates
// per horizon.
type Path uint8

// Answering paths. PathMarkov is appended after the original three so
// persisted path indices (evaluation cells, snapshots) keep their meaning.
const (
	PathForward  Path = iota // FQP: near query answered by patterns
	PathBackward             // BQP: distant query answered by patterns
	PathFallback             // RMF motion-function fallback
	PathMarkov               // variable-order Markov region chain

	// NumPaths is the size of the path enum; per-path arrays (evaluation
	// cells, label sets) are dimensioned by it.
	NumPaths
)

// String implements fmt.Stringer.
func (p Path) String() string {
	switch p {
	case PathForward:
		return "forward"
	case PathBackward:
		return "backward"
	case PathMarkov:
		return "markov"
	default:
		return "fallback"
	}
}

// Paths is the registry of answering paths, in enum order. Exporters
// (metrics label sets, stats JSON, evaluation summaries) derive their
// per-path label space from it, so adding a path here grows every surface
// at once instead of each hand-enumerated list drifting separately.
func Paths() []Path {
	return []Path{PathForward, PathBackward, PathFallback, PathMarkov}
}

// Prediction is one predicted location with its provenance.
type Prediction struct {
	Location   geom.Point
	Score      float64 // the ranking weight Sp (0 for motion fallback)
	Confidence float64 // the pattern confidence c (0 for motion fallback)
	PatternRef int     // index into the engine's pattern slice, -1 for motion
	Source     Source
	Path       Path // the query procedure that produced this answer
	// Extent is the consequence region's bounding box — the paper's
	// answers are region centers, and the region extent is the natural
	// uncertainty bound. Zero for motion-function predictions.
	Extent geom.Rect
	// ConsequenceOffset is the time offset the winning pattern predicts
	// for; for BQP it may differ from the query offset by up to the
	// (expanded) relaxation window. -1 for motion-function predictions.
	ConsequenceOffset int
}

// Query is a predictive query: the object's recent movements and the
// absolute query time.
type Query struct {
	Recent []trajectory.TimedPoint // ascending consecutive timestamps
	Tq     int                     // absolute query time, after Recent's end
	K      int                     // number of predictions wanted; <=0 means 1
}

// Config tunes the engine.
type Config struct {
	// Period is T, the pattern re-appearance period. Required.
	Period int
	// DistantThreshold is d in Definition 2: queries with
	// tq - tc >= DistantThreshold use BQP. Values <= 0 default to
	// DefaultDistantThreshold (the paper's experiments use 60).
	DistantThreshold int
	// TimeRelaxation is tε, BQP's base window radius. Values <= 0 default
	// to DefaultTimeRelaxation (the paper observed 1..3 predicting best).
	TimeRelaxation int
	// Weight selects the premise-similarity weight function.
	Weight WeightFunc
	// PenalizePremise applies Equation 5's d/(tq-tc) premise penalty in
	// BQP ranking (the paper's final form). Disabling it reverts to
	// Equation 4 — exposed for the ablation bench.
	PenalizePremise bool
	// NewMotion builds the fallback motion function. A fit runs at most
	// once per distinct recent window — the engine memoizes the last
	// fitted model and reuses it while the window is unchanged (repeat
	// Predict calls between observations, fleet-index refreshes), so the
	// paper's per-query RMF retraining cost is paid only when the window
	// actually advances. Nil disables the fallback (pattern-only
	// prediction, used by some ablations).
	NewMotion func() motion.Function
}

// Defaults for Config fields left at their zero value.
const (
	DefaultDistantThreshold = 60
	DefaultTimeRelaxation   = 2
)

// QueryStats counts what the engine did since construction (or the last
// ResetStats). The counters quantify the paper's cost argument: the more
// patterns answer, the fewer expensive motion-function constructions run.
type QueryStats struct {
	Queries      int // Predict calls answered
	Forward      int // answered by FQP
	Backward     int // answered by BQP
	Markov       int // answered by the region-transition chain
	Fallback     int // answered by the motion function
	Unanswered   int // no pattern and no (or failed) fallback
	NodesVisited int // TPT nodes touched across all searches
	FallbackFits int // motion functions actually fitted (cache misses)
}

// Add returns the field-wise sum of two counter snapshots — used by callers
// that accumulate stats across engine generations (e.g. model retrains).
func (s QueryStats) Add(t QueryStats) QueryStats {
	s.Queries += t.Queries
	s.Forward += t.Forward
	s.Backward += t.Backward
	s.Markov += t.Markov
	s.Fallback += t.Fallback
	s.Unanswered += t.Unanswered
	s.NodesVisited += t.NodesVisited
	s.FallbackFits += t.FallbackFits
	return s
}

// ByPath returns the answered-query counter for one path — the accessor
// the registry-driven metric exporters iterate Paths() with.
func (s QueryStats) ByPath(p Path) int {
	switch p {
	case PathForward:
		return s.Forward
	case PathBackward:
		return s.Backward
	case PathMarkov:
		return s.Markov
	default:
		return s.Fallback
	}
}

// queryCounters are the engine's live counters, kept as atomics so Predict,
// ForwardQuery and BackwardQuery are safe for unlimited concurrent callers
// without a lock. Queries is not stored: the five outcome counters
// partition answered Predict calls, so Stats derives it as their sum and
// the identity Queries == Forward+Backward+Markov+Fallback+Unanswered
// holds in every snapshot.
type queryCounters struct {
	forward      atomic.Int64
	backward     atomic.Int64
	markov       atomic.Int64
	fallback     atomic.Int64
	unanswered   atomic.Int64
	nodesVisited atomic.Int64
	fallbackFits atomic.Int64
}

// Engine answers predictive queries over a mined pattern set indexed in a
// Trajectory Pattern Tree.
//
// Concurrency: Predict, PredictBatch, PredictRange, ForwardQuery,
// BackwardQuery, EncodeRecent and Stats are safe for any number of
// concurrent callers — queries only read the index and bump atomic
// counters. AddPatterns, InsertPatterns, RemovePattern, UpdatePattern and
// ResetStats mutate the engine and must not run concurrently with
// queries; callers serialize them externally (the store does so under
// each object's write lock).
type Engine struct {
	enc      *pattern.Encoder
	tree     *tpt.Tree
	patterns []pattern.Pattern
	cfg      Config

	// dead marks retired refs. Retired patterns stay in the slice —
	// PatternRef values in served predictions and Explain keep indexing
	// it — but their tree entries are gone, so queries never surface
	// them. live counts the others, and liveAt counts them per consequence
	// offset (index = offset within the period), which is what lets BQP
	// compute its first productive window instead of widening up to it.
	dead   []bool
	live   int
	liveAt []int32

	stats queryCounters

	// markov, when set, answers queries the pattern paths could not: a
	// variable-order region-transition chain consulted between the
	// pattern search and the motion fallback. Held through an atomic
	// pointer so the owner (core.Model) can attach or swap it without
	// stalling concurrent queries.
	markov atomic.Pointer[MarkovHook]

	// fitCache memoizes the last fitted fallback motion function, keyed by
	// the identity of the recent window it was fitted on. Repeated queries
	// from the same window — per-object Predict traffic between
	// observations, fleet-index refreshes, batch fan-outs — reuse one
	// fitted model instead of refitting an identical one. Motion functions
	// are immutable after Fit (their Predict methods are pure), so a cached
	// instance is safe to share across concurrent queries; the cache
	// invalidates itself the moment the window advances.
	fitCache atomic.Pointer[fittedMotion]
}

// fittedMotion is one memoized fallback fit. The (t0, tc, n, lastLoc) tuple
// identifies the recent window: store windows are track suffixes, so the
// endpoints and length pin the exact point set (lastLoc guards the
// pathological caller that reuses timestamps with different geometry).
type fittedMotion struct {
	t0, tc  int
	n       int
	lastLoc geom.Point
	fn      motion.Function
	err     error
}

// candidate is one search hit reduced to what ranking reads. A search
// surfaces hundreds of them to return the top k, so the full Prediction
// (region centre, extent, offset) is built for the winners only.
type candidate struct {
	score, conf float64
	ref         int
}

// queryScratch holds the per-query working buffers — the encoded premise,
// the candidate accumulator, BQP's Equation 3 score per time id, and the
// times and locations of a batch's one motion walk — recycled through a pool
// so the steady-state query path stays allocation-lean under concurrent load.
type queryScratch struct {
	visited   []pattern.RegionID
	cands     []candidate
	timeScore []float64
	late      []int
	locs      []geom.Point
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// NewEngine indexes the patterns and returns a ready engine. The patterns
// slice is retained; PatternRef values in predictions index into it. A nil
// shape bulk-loads the index; a saved model passes the shape its tree had and
// gets that tree back unsorted, or an error if it does not fit the patterns.
func NewEngine(enc *pattern.Encoder, patterns []pattern.Pattern, cfg Config, treeOpts tpt.Options, shape *tpt.Shape) (*Engine, error) {
	if cfg.Period <= 0 {
		return nil, errors.New("hpa: Config.Period must be positive")
	}
	if cfg.DistantThreshold <= 0 {
		cfg.DistantThreshold = DefaultDistantThreshold
	}
	if cfg.TimeRelaxation <= 0 {
		cfg.TimeRelaxation = DefaultTimeRelaxation
	}
	// Every key is encoded where the tree builder reads it: no key, and no
	// item, is allocated per pattern.
	rt := enc.RegionTable()
	tree, err := tpt.Build(enc.ConsequenceTable().Len(), rt.Len(), len(patterns), shape, treeOpts, func(i int, ck, rk bitkey.Key) (float64, int) {
		enc.EncodeInto(patterns[i], ck, rk)
		return patterns[i].Confidence, i
	})
	if err != nil {
		return nil, fmt.Errorf("hpa: %w", err)
	}
	e := &Engine{enc: enc, tree: tree, patterns: patterns, cfg: cfg,
		dead: make([]bool, len(patterns)), live: len(patterns), liveAt: make([]int32, cfg.Period)}
	for _, p := range patterns {
		e.countLive(rt.Region(p.Consequence).Offset, 1)
	}
	return e, nil
}

// countLive moves the live-pattern count of one consequence offset. Offsets
// outside [0, Period) are not counted: no BQP window, which only spans
// offsets of the period, can reach them.
func (e *Engine) countLive(off int, delta int32) {
	if off >= 0 && off < len(e.liveAt) {
		e.liveAt[off] += delta
	}
}

// Tree exposes the underlying TPT for diagnostics and benchmarks.
func (e *Engine) Tree() *tpt.Tree { return e.tree }

// MarkovHook answers a query from the region-transition chain: the
// object's recent movements and the absolute query time in, one
// prediction out (tagged SourceMarkov/PathMarkov by the implementation),
// or false when the chain has no sufficiently supported answer. Hooks
// must be safe for concurrent callers.
type MarkovHook func(recent []trajectory.TimedPoint, tq int) (Prediction, bool)

// SetMarkov attaches (or, with nil, detaches) the Markov answering path.
// Safe to call while queries run.
func (e *Engine) SetMarkov(h MarkovHook) {
	if h == nil {
		e.markov.Store(nil)
		return
	}
	e.markov.Store(&h)
}

// tryMarkov consults the Markov hook, if attached.
func (e *Engine) tryMarkov(recent []trajectory.TimedPoint, tq int) (Prediction, bool) {
	hp := e.markov.Load()
	if hp == nil {
		return Prediction{}, false
	}
	return (*hp)(recent, tq)
}

// AddPatterns inserts newly mined patterns into the live index using the
// TPT insertion algorithm (§V-B dynamic data). Patterns whose consequence
// time offset is absent from the consequence-key table cannot be encoded
// against the existing keys and are skipped — the table is fixed at build
// time, exactly as in the paper; retrain to widen it. Returns how many
// patterns were inserted and how many were skipped.
func (e *Engine) AddPatterns(ps []pattern.Pattern) (added, skipped int) {
	ct := e.enc.ConsequenceTable()
	rt := e.enc.RegionTable()
	for _, p := range ps {
		off := rt.Region(p.Consequence).Offset
		if _, ok := ct.TimeID(off); !ok {
			skipped++
			continue
		}
		ref := len(e.patterns)
		e.patterns = append(e.patterns, p)
		e.dead = append(e.dead, false)
		e.live++
		e.countLive(off, 1)
		e.tree.Insert(tpt.Item{Key: e.enc.Encode(p), Conf: p.Confidence, Ref: ref})
		added++
	}
	return added, skipped
}

// Patterns returns a copy of the indexed pattern slice: AddPatterns keeps
// appending to the engine's own slice, so handing out the internal backing
// array would let callers corrupt the index (or observe it mid-append).
func (e *Engine) Patterns() []pattern.Pattern {
	out := make([]pattern.Pattern, len(e.patterns))
	copy(out, e.patterns)
	return out
}

// Config returns the engine configuration after defaulting.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns a snapshot of the query counters. Safe to call while
// queries run; Queries is derived from the outcome counters, so the
// partition identity Queries == Forward+Backward+Markov+Fallback+Unanswered
// holds in every snapshot even mid-traffic.
func (e *Engine) Stats() QueryStats {
	f := e.stats.forward.Load()
	b := e.stats.backward.Load()
	mk := e.stats.markov.Load()
	fb := e.stats.fallback.Load()
	u := e.stats.unanswered.Load()
	return QueryStats{
		Queries:      int(f + b + mk + fb + u),
		Forward:      int(f),
		Backward:     int(b),
		Markov:       int(mk),
		Fallback:     int(fb),
		Unanswered:   int(u),
		NodesVisited: int(e.stats.nodesVisited.Load()),
		FallbackFits: int(e.stats.fallbackFits.Load()),
	}
}

// ResetStats zeroes the query counters. Not atomic with respect to
// in-flight queries; quiesce callers first if an exact zero matters.
func (e *Engine) ResetStats() {
	e.stats.forward.Store(0)
	e.stats.backward.Store(0)
	e.stats.markov.Store(0)
	e.stats.fallback.Store(0)
	e.stats.unanswered.Store(0)
	e.stats.nodesVisited.Store(0)
	e.stats.fallbackFits.Store(0)
}

// IsDistant reports whether a query from current time tc to query time tq
// is a distant-time query (Definition 2).
func (e *Engine) IsDistant(tc, tq int) bool {
	return tq-tc >= e.cfg.DistantThreshold
}

// EncodeRecent maps the recent movements to the frequent regions visited,
// deduplicated, in visit order. Locations matching no region are skipped —
// the paper only encodes regions the object demonstrably passed through.
func (e *Engine) EncodeRecent(recent []trajectory.TimedPoint) []pattern.RegionID {
	return e.encodeRecentInto(nil, recent)
}

// encodeRecentInto is EncodeRecent appending into a reusable buffer. The
// dedup is a linear scan over the ids collected so far: recent windows hold
// a handful of distinct regions, where scanning beats a per-query map
// allocation.
func (e *Engine) encodeRecentInto(ids []pattern.RegionID, recent []trajectory.TimedPoint) []pattern.RegionID {
	rt := e.enc.RegionTable()
	ids = ids[:0]
next:
	for _, tp := range recent {
		off := mod(tp.T, e.cfg.Period)
		fr, ok := rt.Locate(off, tp.Loc)
		if !ok {
			continue
		}
		for _, seen := range ids {
			if seen == fr.ID {
				continue next
			}
		}
		ids = append(ids, fr.ID)
	}
	return ids
}

// currentTime returns the time of recent's last point, which every query
// time must lie after.
func currentTime(recent []trajectory.TimedPoint, tqs ...int) (tc int, err error) {
	if len(recent) == 0 {
		return 0, errors.New("hpa: query has no recent movements")
	}
	tc = recent[len(recent)-1].T
	for _, tq := range tqs {
		if tq <= tc {
			return 0, fmt.Errorf("hpa: query time %d not after current time %d", tq, tc)
		}
	}
	return tc, nil
}

// Predict answers a query with the full Hybrid Prediction Algorithm:
// FQP for near queries, BQP for distant ones, then the Markov region
// chain (when attached) for queries no pattern answers, and finally the
// motion-function fallback.
func (e *Engine) Predict(q Query) ([]Prediction, error) {
	tc, err := currentTime(q.Recent, q.Tq)
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	sc.visited = e.encodeRecentInto(sc.visited, q.Recent)
	if preds := e.patternPaths(sc, q.Recent, tc, q.Tq, max(q.K, 1), true); preds != nil {
		return preds, nil
	}
	return e.motionFallback(q)
}

// patternPaths answers one query time from the patterns — FQP or BQP, as its
// distance from tc decides — and, where none qualifies, from the chain. nil
// leaves the time to the motion function. counted adds the answer to the
// query stats.
func (e *Engine) patternPaths(sc *queryScratch, recent []trajectory.TimedPoint, tc, tq, k int, counted bool) []Prediction {
	var preds []Prediction
	path := &e.stats.forward
	if e.IsDistant(tc, tq) {
		preds, path = e.backwardQuery(sc, sc.visited, tc, tq, k), &e.stats.backward
	} else {
		preds = e.forwardQuery(sc, sc.visited, tq, k)
	}
	if len(preds) == 0 {
		mp, ok := e.tryMarkov(recent, tq)
		if !ok {
			return nil
		}
		preds, path = []Prediction{mp}, &e.stats.markov
	}
	if counted {
		path.Add(1)
	}
	return preds
}

// PredictBatch answers one query per entry of tqs from the same recent
// window, returning the per-time prediction lists in input order. The
// premise is encoded once and the motion fallback, when any time needs it,
// is fitted once and walked once — a batch of m queries costs one encoding,
// at most one model construction and one pass of the recurrence to the
// furthest time it has to answer, instead of m of each.
//
// Each time dispatches to FQP or BQP by its own distance from the current
// time and counts in the query stats individually. Times the fallback
// cannot answer yield a nil entry rather than failing the batch. Every tq
// must lie after the recent window's end.
func (e *Engine) PredictBatch(recent []trajectory.TimedPoint, tqs []int, k int) ([][]Prediction, error) {
	if _, err := currentTime(recent, tqs...); err != nil || len(tqs) == 0 {
		return nil, err
	}
	return e.predictEach(recent, tqs, max(k, 1), true), nil
}

// predictEach is PredictBatch past its checks. The times no pattern and no
// chain answers are set aside and handed to the motion function together.
func (e *Engine) predictEach(recent []trajectory.TimedPoint, tqs []int, k int, counted bool) [][]Prediction {
	tc := recent[len(recent)-1].T
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	sc.visited = e.encodeRecentInto(sc.visited, recent)
	out := make([][]Prediction, len(tqs))
	late := sc.late[:0]
	for i, tq := range tqs {
		if out[i] = e.patternPaths(sc, recent, tc, tq, k, counted); out[i] == nil {
			late = append(late, tq)
		}
	}
	sc.late = late
	if len(late) == 0 {
		return out
	}
	outcome := &e.stats.unanswered
	if locs := e.motionEach(sc, recent, late); locs != nil {
		outcome = &e.stats.fallback
		answers, j := make([]Prediction, len(locs)), 0
		for i := range out {
			if out[i] == nil {
				answers[j] = motionPrediction(locs[j])
				out[i], j = answers[j:j+1:j+1], j+1
			}
		}
	}
	if counted {
		outcome.Add(int64(len(late)))
	}
	return out
}

// motionEach returns the motion function's location at every time of tqs, in
// scratch storage: one fit (the cached one while the window stands) and one
// walk. A degenerate recent window answers with the last known location, as
// Predict's fallback does; nil means no motion function, or one that cannot
// answer.
func (e *Engine) motionEach(sc *queryScratch, recent []trajectory.TimedPoint, tqs []int) []geom.Point {
	if e.cfg.NewMotion == nil {
		return nil
	}
	sc.locs = slices.Grow(sc.locs[:0], len(tqs))[:len(tqs)]
	if fn, err := e.fitMotion(recent); err != nil {
		for i := range sc.locs {
			sc.locs[i] = recent[len(recent)-1].Loc
		}
	} else if fn.PredictEach(tqs, sc.locs) != nil {
		return nil
	}
	return sc.locs
}

// motionPrediction is an answer of the motion path: a location with no
// pattern behind it.
func motionPrediction(loc geom.Point) Prediction {
	return Prediction{Location: loc, PatternRef: -1, Source: SourceMotion,
		Path: PathFallback, ConsequenceOffset: -1}
}

// PredictRange answers a predictive trajectory query: the object's most
// probable location at every timestamp in [from, to]. Each timestamp is
// dispatched to FQP or BQP by its own distance from the current time; the
// motion function, when needed, is fitted once and walked once across the
// whole range (a single model construction and a single pass of its
// recurrence, unlike per-point Predict calls), and a timestamp it cannot
// answer stays at the last known location. The result holds exactly
// to-from+1 predictions in timestamp order; none of them counts in the
// query stats.
func (e *Engine) PredictRange(recent []trajectory.TimedPoint, from, to int) ([]Prediction, error) {
	tc, err := currentTime(recent)
	if err != nil {
		return nil, err
	}
	if from <= tc || to < from {
		return nil, fmt.Errorf("hpa: range [%d,%d] invalid for current time %d", from, to, tc)
	}
	tqs := make([]int, to-from+1)
	for i := range tqs {
		tqs[i] = from + i
	}
	out := make([]Prediction, len(tqs))
	last := motionPrediction(recent[len(recent)-1].Loc)
	for i, preds := range e.predictEach(recent, tqs, 1, false) {
		out[i] = last
		if len(preds) > 0 {
			out[i] = preds[0]
		}
	}
	return out, nil
}

// ForwardQuery implements Algorithm 2 minus the motion fallback: it returns
// the top-k pattern predictions for a non-distant query, or nil when no
// pattern qualifies.
func (e *Engine) ForwardQuery(visited []pattern.RegionID, tq, k int) []Prediction {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	return e.forwardQuery(sc, visited, tq, k)
}

// forwardQuery is ForwardQuery accumulating candidates into sc.cands; the
// returned top-k slice is freshly allocated, never scratch-backed.
func (e *Engine) forwardQuery(sc *queryScratch, visited []pattern.RegionID, tq, k int) []Prediction {
	if len(visited) == 0 {
		return nil
	}
	tqOff := mod(tq, e.cfg.Period)
	qk := e.enc.QueryKey(visited, tqOff)
	if qk.CK.IsZero() || qk.RK.IsZero() {
		return nil
	}
	cands := sc.cands[:0]
	e.stats.nodesVisited.Add(int64(e.tree.SearchIntersect(qk, func(ref, _ int, conf float64, rk bitkey.Key) bool {
		sr := PremiseSimilarity(rk, qk.RK, e.cfg.Weight)
		cands = append(cands, candidate{score: sr * conf, conf: conf, ref: ref}) // Equation 2
		return true
	})))
	sc.cands = cands
	return e.topK(cands, k, PathForward)
}

// BackwardQuery implements Algorithm 3 minus the motion fallback: of the
// windows [tq-i·tε, tq+i·tε], i = 1, 2, …, it searches the first one that
// holds a pattern's consequence offset — unless the window would have to
// reach back to the current time first — and ranks what it finds by
// Equation 5 (or Equation 4 when the premise penalty is disabled).
func (e *Engine) BackwardQuery(visited []pattern.RegionID, tc, tq, k int) []Prediction {
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	return e.backwardQuery(sc, visited, tc, tq, k)
}

// backwardQuery is BackwardQuery accumulating candidates into sc.cands; the
// returned top-k slice is freshly allocated, never scratch-backed.
func (e *Engine) backwardQuery(scr *queryScratch, visited []pattern.RegionID, tc, tq, k int) []Prediction {
	tqOff := mod(tq, e.cfg.Period)
	radius, ok := e.firstWindow(tqOff, tc, tq)
	if !ok {
		return nil
	}
	qrk := e.enc.RegionTable().PremiseKey(visited)
	qk := bitkey.PatternKey{
		CK: consequenceWindowKey(e.enc.ConsequenceTable(), tqOff, radius, e.cfg.Period),
		RK: qrk,
	}
	// Equation 3 reads a hit only through its consequence offset, and the
	// search hands every hit the time id its key carries: the offsets are
	// scored here, once each, and a hit looks its score up. The window key
	// holds exactly the offsets within radius, so every item visited has
	// dist <= radius.
	tab := scr.timeScore[:0]
	for _, off := range e.enc.ConsequenceTable().Offsets() {
		dist := circularDist(tqOff, off, e.cfg.Period)
		tab = append(tab, 1-float64(dist)/float64(radius+1)) // Equation 3
	}
	scr.timeScore = tab
	cands := scr.cands[:0]
	e.stats.nodesVisited.Add(int64(e.tree.SearchConsequence(qk, func(ref, tid int, conf float64, rk bitkey.Key) bool {
		// Equation 5, or 4 with the penalty off: premise term plus time term,
		// weighted by confidence. A hit that shares no region with the query
		// has similarity 0 and a premise term of exactly 0 whatever divides
		// it; only the others pay for the division.
		sr := PremiseSimilarity(rk, qrk, e.cfg.Weight)
		if sr != 0 && e.cfg.PenalizePremise {
			sr = sr * float64(e.cfg.DistantThreshold) / float64(tq-tc)
		}
		cands = append(cands, candidate{score: (sr + tab[tid]) * conf, conf: conf, ref: ref})
		return true
	})))
	scr.cands = cands
	return e.topK(cands, k, PathBackward)
}

// firstWindow computes where Algorithm 3's widening loop ends without
// running it. The loop tries radius i·tε for i = 1 and then for every i
// whose window's lower edge tq − i·tε is still after tc (line 8), and stops
// at the first window holding a live pattern's consequence offset. That
// window is the one whose radius first reaches the live offset nearest to
// tqOff, so it follows from liveAt; ok is false when the stop rule ends the
// loop before any window gets there.
func (e *Engine) firstWindow(tqOff, tc, tq int) (radius int, ok bool) {
	te, period := e.cfg.TimeRelaxation, e.cfg.Period
	// The largest i with tq − i·tε > tc; the base window is searched
	// unconditionally.
	last := max(1, (tq-tc-1)/te)
	// No offset is further than half a period away.
	reach := min(last*te, period/2)
	up, down := tqOff, tqOff
	for d := 0; d <= reach; d++ {
		if e.liveAt[up] > 0 || e.liveAt[down] > 0 {
			return max(1, (d+te-1)/te) * te, true
		}
		if up++; up == period {
			up = 0
		}
		if down--; down < 0 {
			down = period - 1
		}
	}
	return 0, false
}

func (e *Engine) consequenceRegion(ref int) *pattern.FrequentRegion {
	return e.enc.RegionTable().Region(e.patterns[ref].Consequence)
}

// fitMotion returns a fallback motion function fitted to recent, reusing the
// cached fit when the window is unchanged. Concurrent misses may both fit
// (last store wins); the fit counter reports fits actually performed.
func (e *Engine) fitMotion(recent []trajectory.TimedPoint) (motion.Function, error) {
	n := len(recent)
	t0, tc := recent[0].T, recent[n-1].T
	last := recent[n-1].Loc
	if c := e.fitCache.Load(); c != nil && c.t0 == t0 && c.tc == tc && c.n == n && c.lastLoc == last {
		return c.fn, c.err
	}
	fn := e.cfg.NewMotion()
	err := fn.Fit(recent)
	e.stats.fallbackFits.Add(1)
	e.fitCache.Store(&fittedMotion{t0: t0, tc: tc, n: n, lastLoc: last, fn: fn, err: err})
	return fn, err
}

// motionFallback answers q from the motion function and counts the outcome:
// a fallback answer, or an unanswered query.
func (e *Engine) motionFallback(q Query) ([]Prediction, error) {
	if e.cfg.NewMotion == nil {
		e.stats.unanswered.Add(1)
		return nil, nil
	}
	// A degenerate recent window is answered with the last known location
	// rather than failing the query.
	loc := q.Recent[len(q.Recent)-1].Loc
	if fn, err := e.fitMotion(q.Recent); err == nil {
		if loc, err = fn.Predict(q.Tq); err != nil {
			e.stats.unanswered.Add(1)
			return nil, fmt.Errorf("hpa: motion fallback: %w", err)
		}
	}
	e.stats.fallback.Add(1)
	return []Prediction{motionPrediction(loc)}, nil
}

// PredictVia answers a query down one named route. It is the one place a
// route becomes a procedure: PathFallback is FallbackQuery, PathMarkov is
// MarkovQuery, and PathForward or PathBackward is the hybrid dispatch,
// Predict, which picks FQP or BQP by the query's distance itself. The online
// evaluator shadow-scores each route through it, and the store's adaptive
// routing sends a query down whichever route measures best at its horizon.
func (e *Engine) PredictVia(route Path, q Query) ([]Prediction, error) {
	switch route {
	case PathFallback:
		return e.FallbackQuery(q)
	case PathMarkov:
		return e.MarkovQuery(q)
	default:
		return e.Predict(q)
	}
}

// FallbackQuery answers a query with the motion-function fallback alone,
// bypassing the pattern paths. Counts as a fallback (or unanswered) query in
// the stats.
func (e *Engine) FallbackQuery(q Query) ([]Prediction, error) {
	if _, err := currentTime(q.Recent, q.Tq); err != nil {
		return nil, err
	}
	return e.motionFallback(q)
}

// MarkovQuery answers a query with the Markov region chain alone,
// bypassing the pattern paths and falling through to the motion function
// when the chain cannot answer. Counts as a markov (or fallback/unanswered)
// query in the stats.
func (e *Engine) MarkovQuery(q Query) ([]Prediction, error) {
	if _, err := currentTime(q.Recent, q.Tq); err != nil {
		return nil, err
	}
	if mp, ok := e.tryMarkov(q.Recent, q.Tq); ok {
		e.stats.markov.Add(1)
		return []Prediction{mp}, nil
	}
	return e.motionFallback(q)
}

// better reports whether a ranks strictly ahead of b: higher score, ties
// broken by higher confidence, then lower pattern index for determinism.
// Candidates within one search carry distinct refs, so this is a strict
// total order and the top-k set is deterministic.
func better(a, b *candidate) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.conf != b.conf {
		return a.conf > b.conf
	}
	return a.ref < b.ref
}

// topK returns the k best candidates in rank order as predictions answered
// by path, freshly allocated so callers never alias the pooled scratch. It
// runs a bounded selection heap in the scratch's own prefix — O(n log k),
// a heap sort when k covers every candidate — and only the winners are
// materialised. cands is reordered.
func (e *Engine) topK(cands []candidate, k int, path Path) []Prediction {
	k = min(k, len(cands))
	if k <= 0 {
		return nil
	}
	// cands[:k] becomes a worst-at-root heap; survivors displace the root.
	h := cands[:k]
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for i := k; i < len(cands); i++ {
		if better(&cands[i], &h[0]) {
			h[0] = cands[i]
			siftWorst(h, 0)
		}
	}
	// Pop worst-first into the tail of the output to leave rank order.
	out := make([]Prediction, k)
	for n := k; n > 0; n-- {
		c := h[0]
		fr := e.consequenceRegion(c.ref)
		out[n-1] = Prediction{
			Location:          fr.Center,
			Score:             c.score,
			Confidence:        c.conf,
			PatternRef:        c.ref,
			Source:            SourcePattern,
			Path:              path,
			Extent:            fr.MBR,
			ConsequenceOffset: fr.Offset,
		}
		h[0] = h[n-1]
		h = h[:n-1]
		siftWorst(h, 0)
	}
	return out
}

// siftWorst restores the worst-at-root heap property below index i.
func siftWorst(h []candidate, i int) {
	for {
		l, r, w := 2*i+1, 2*i+2, i
		if l < len(h) && better(&h[w], &h[l]) {
			w = l
		}
		if r < len(h) && better(&h[w], &h[r]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// consequenceWindowKey builds the consequence key for the offsets within
// radius of tqOff, wrapping modulo the period.
func consequenceWindowKey(ct *pattern.ConsequenceTable, tqOff, radius, period int) (k bitkey.Key) {
	if 2*radius+1 >= period {
		return ct.KeyRange(0, period-1)
	}
	lo, hi := tqOff-radius, tqOff+radius
	switch {
	case lo < 0:
		k = ct.KeyRange(0, hi)
		k.OrInPlace(ct.KeyRange(mod(lo, period), period-1))
	case hi >= period:
		k = ct.KeyRange(lo, period-1)
		k.OrInPlace(ct.KeyRange(0, hi-period))
	default:
		k = ct.KeyRange(lo, hi)
	}
	return k
}

// mod is the non-negative remainder.
func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// circularDist is the wrap-around distance between two offsets in [0, n).
func circularDist(a, b, n int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if n-d < d {
		d = n - d
	}
	return d
}
