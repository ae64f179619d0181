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
	// fitted model and reuses it while the window is unchanged, so the
	// paper's per-query RMF retraining cost is paid only when the window
	// actually advances. A repeated store query between two observations
	// no longer reaches the engine at all (the store's answer memo); the
	// cached fit serves the first reads after a write, the fleet-index
	// refresh and batch fan-outs. Nil disables the fallback (pattern-only
	// prediction, used by some ablations).
	NewMotion func() motion.Function
	// Markov answers the query times the pattern paths could not, before
	// the motion fallback: a variable-order region-transition chain. Asked
	// once per batch with the recent movements and every time still open,
	// it sets out[i], zeroed on entry, to its answer at tqs[i] (tagged
	// SourceMarkov/PathMarkov) or leaves it zero. It must be safe for
	// concurrent callers. Nil leaves the path out.
	Markov func(recent []trajectory.TimedPoint, tqs []int, out []Prediction)
}

// Defaults for Config fields left at their zero value.
const (
	DefaultDistantThreshold = 60
	DefaultTimeRelaxation   = 2
)

// QueryStats counts what the engine did since construction. The counters
// quantify the paper's cost argument: the more patterns answer, the fewer
// expensive motion-function constructions run. NodesVisited counts query
// searches only: the search that builds an offset's confidence ranking when
// BQP needs it is index maintenance, like Insert, and is not counted; the
// rankings themselves are, by where each came from.
type QueryStats struct {
	Queries      int // Predict calls answered
	Forward      int // answered by FQP
	Backward     int // answered by BQP
	Markov       int // answered by the region-transition chain
	Fallback     int // answered by the motion function
	Unanswered   int // no pattern and no (or failed) fallback
	NodesVisited int // TPT nodes touched by query searches
	FallbackFits int // motion functions actually fitted (cache misses)
	RankBuilds   int // BQP ranked lists built from the tree: an offset's first read
	RankReranks  int // stale ranked lists re-ranked from their own members
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
	s.RankBuilds += t.RankBuilds
	s.RankReranks += t.RankReranks
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
// holds in every snapshot. The two ranked-list counters are bumped under
// rankMu, which a query that finds its list current never takes.
type queryCounters struct {
	forward      atomic.Int64
	backward     atomic.Int64
	markov       atomic.Int64
	fallback     atomic.Int64
	unanswered   atomic.Int64
	nodesVisited atomic.Int64
	fallbackFits atomic.Int64
	rankBuilds   atomic.Int64
	rankReranks  atomic.Int64
}

// Engine answers predictive queries over a mined pattern set indexed in a
// Trajectory Pattern Tree.
//
// Concurrency: Predict, PredictBatch, PredictRange, ForwardQuery,
// BackwardQuery, EncodeRecent and Stats are safe for any number of
// concurrent callers — queries read the index and bump atomic counters,
// and the one thing a query may write, an offset's confidence ranking
// built or re-ranked when BQP needs it and none is current, is made once
// under an internal mutex and published atomically. Apply mutates the
// engine — it marks the ranked lists it makes stale, for the next query to
// re-rank — and must not run concurrently with queries; callers serialize
// it externally (the store does so under each object's write lock).
type Engine struct {
	enc   *pattern.Encoder
	tree  *tpt.Tree
	rules *pattern.Table // one row per ref
	cfg   Config

	// dead marks retired refs. Retired rules keep their rows —
	// PatternRef values in served predictions and Explain keep indexing
	// the table — but their tree entries are gone, so queries never surface
	// them. live counts the others, and liveAt counts them per consequence
	// offset (index = offset within the period), which is what lets BQP
	// compute its first productive window instead of widening up to it.
	dead   []bool
	live   int
	liveAt []int32

	// ranked holds, per consequence offset (indexed like liveAt), the
	// offset's live refs by confidence descending, then ref ascending: the
	// order BQP ranks the hits that share no region with the query, whose
	// score is the offset's Equation 3 term times confidence. A list is a
	// cache of the tree: built from it when a query first needs the offset
	// (under rankMu, so once), marked stale by any mutator that changes
	// what it would hold, and re-ranked from its members by the next query
	// that reads it.
	ranked []atomic.Pointer[rankedList]
	rankMu sync.Mutex

	stats queryCounters

	// fitCache memoizes the last fitted fallback motion function, keyed by
	// the identity of the recent window it was fitted on. Every query is a
	// batch that fits at most once, so the cache serves the calls after the
	// first from one window: a repeated (times, k) between observations
	// stops at the store's answer memo before it gets here, but different
	// times, a different k, a named route or a fleet-index refresh from the
	// same window reuse one fitted model instead of refitting an identical
	// one. Motion functions are immutable after Fit (their Predict methods
	// are pure), so a cached instance is safe to share across concurrent
	// queries; the cache invalidates itself the moment the window advances.
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
// open times of a batch and its one motion walk's locations — recycled
// through a pool so the steady-state query path stays allocation-lean under
// concurrent load.
type queryScratch struct {
	visited   []pattern.RegionID
	cands     []candidate
	timeScore []float64
	late      []int
	locs      []geom.Point
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

// NewEngine indexes the rules over the region table and returns a ready
// engine. The table is retained — PatternRef values in predictions are its
// rows — and the consequence table is built from it. A nil shape bulk-loads
// the index; a saved model passes the shape its tree had and gets that tree
// back unsorted, or an error if it does not fit the rules.
func NewEngine(rt *pattern.RegionTable, rules *pattern.Table, cfg Config, treeOpts tpt.Options, shape *tpt.Shape) (*Engine, error) {
	if cfg.Period <= 0 {
		return nil, errors.New("hpa: Config.Period must be positive")
	}
	if cfg.DistantThreshold <= 0 {
		cfg.DistantThreshold = DefaultDistantThreshold
	}
	if cfg.TimeRelaxation <= 0 {
		cfg.TimeRelaxation = DefaultTimeRelaxation
	}
	// Each rule's consequence offset, derived once: the consequence table
	// is built from them, each key takes its time id from them, and the
	// live counts are kept by them.
	offs := make([]int32, rules.Len())
	for i := range offs {
		offs[i] = int32(rt.Region(rules.Consequence(i)).Offset)
	}
	ct := pattern.ConsequenceTableOf(offs)
	enc := pattern.NewEncoder(rt, ct)
	// Every key is encoded where the tree builder reads it: no key, and no
	// item, is allocated per rule.
	tree, err := tpt.Build(ct.Len(), rt.Len(), len(offs), shape, treeOpts, func(i int, ck, rk []uint64) int {
		tid, _ := ct.TimeID(int(offs[i]))
		enc.EncodeRule(rules.Premise(i), tid, ck, rk)
		return i
	})
	if err != nil {
		return nil, fmt.Errorf("hpa: %w", err)
	}
	e := &Engine{enc: enc, tree: tree, rules: rules, cfg: cfg,
		dead: make([]bool, len(offs)), live: len(offs), liveAt: make([]int32, cfg.Period),
		ranked: make([]atomic.Pointer[rankedList], cfg.Period)}
	for _, off := range offs {
		e.countLive(int(off), 1)
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

// Encoder returns the key encoder: the region table the engine was built
// over and the consequence table it built.
func (e *Engine) Encoder() *pattern.Encoder { return e.enc }

// Rules returns the engine's rule table, retired rows included, for
// readers such as a model's Save; callers must not mutate it.
func (e *Engine) Rules() *pattern.Table { return e.rules }

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
		RankBuilds:   int(e.stats.rankBuilds.Load()),
		RankReranks:  int(e.stats.rankReranks.Load()),
	}
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
func (e *Engine) Predict(q Query) ([]Prediction, error) { return e.PredictVia(PathForward, q) }

// PredictBatch answers one query per entry of tqs from the same recent
// window, returning the per-time prediction lists in input order. The
// premise is encoded once, the chain is walked once and the motion
// fallback, when any time needs it, is fitted once and walked once — a
// batch of m queries costs one encoding, one chain walk, at most one model
// construction and one pass of the recurrence to the furthest time it has
// to answer, instead of m of each.
//
// Each time dispatches to FQP or BQP by its own distance from the current
// time and counts in the query stats individually. Times the fallback
// cannot answer yield a nil entry rather than failing the batch. Every tq
// must lie after the recent window's end.
func (e *Engine) PredictBatch(recent []trajectory.TimedPoint, tqs []int, k int) ([][]Prediction, error) {
	if _, err := currentTime(recent, tqs...); err != nil || len(tqs) == 0 {
		return nil, err
	}
	return e.predictEach(recent, tqs, max(k, 1), PathForward, true), nil
}

// predictEach is PredictBatch down route past its checks, in three passes:
// the patterns (FQP or BQP, as each time's distance from tc decides), the
// chain, then the motion function, each pass asked once for every time the
// passes before it left open. The route only picks the first pass:
// PathFallback starts at the motion function, PathMarkov at the chain, any
// other route at the patterns. counted adds each answer to the query stats.
func (e *Engine) predictEach(recent []trajectory.TimedPoint, tqs []int, k int, route Path, counted bool) [][]Prediction {
	tc := recent[len(recent)-1].T
	sc := scratchPool.Get().(*queryScratch)
	defer scratchPool.Put(sc)
	out := make([][]Prediction, len(tqs))
	late := sc.late[:0]
	if route == PathFallback || route == PathMarkov {
		late = append(late, tqs...)
	} else {
		sc.visited = e.encodeRecentInto(sc.visited, recent)
		for i, tq := range tqs {
			path := &e.stats.forward
			if e.IsDistant(tc, tq) {
				out[i], path = e.backwardQuery(sc, sc.visited, tc, tq, k), &e.stats.backward
			} else {
				out[i] = e.forwardQuery(sc, sc.visited, tq, k)
			}
			if out[i] == nil {
				late = append(late, tq)
			} else if counted {
				path.Add(1)
			}
		}
	}
	sc.late = late
	if len(late) == 0 {
		return out
	}
	// answers[j] answers late[j], the j-th time left nil in out; the zero
	// Prediction is a time neither the chain nor the motion function
	// answers. open is what the chain leaves, compacted in place.
	answers, open := make([]Prediction, len(late)), late
	if e.cfg.Markov != nil && route != PathFallback {
		e.cfg.Markov(recent, late, answers)
		open = late[:0]
		for j, tq := range late {
			if answers[j] == (Prediction{}) {
				open = append(open, tq)
			}
		}
		if counted {
			e.stats.markov.Add(int64(len(late) - len(open)))
		}
	}
	outcome := &e.stats.unanswered
	if locs := e.motionEach(sc, recent, open); locs != nil {
		outcome = &e.stats.fallback
		for j, m := 0, 0; m < len(locs); j++ {
			if answers[j] == (Prediction{}) {
				answers[j], m = motionPrediction(locs[m]), m+1
			}
		}
	}
	if counted {
		outcome.Add(int64(len(open)))
	}
	for i, j := 0, 0; i < len(out); i++ {
		if out[i] == nil {
			if answers[j] != (Prediction{}) {
				out[i] = answers[j : j+1 : j+1]
			}
			j++
		}
	}
	return out
}

// motionEach returns the motion function's location at every time of tqs, in
// scratch storage: one fit (the cached one while the window stands) and one
// walk. A degenerate recent window, which no motion function can fit,
// answers with the last known location; nil means no times, no motion
// function, or one that cannot answer.
func (e *Engine) motionEach(sc *queryScratch, recent []trajectory.TimedPoint, tqs []int) []geom.Point {
	if e.cfg.NewMotion == nil || len(tqs) == 0 {
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
	for i, preds := range e.predictEach(recent, tqs, 1, PathForward, false) {
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
	e.stats.nodesVisited.Add(int64(e.tree.SearchIntersect(qk, func(ref, _ int, rk bitkey.Key) bool {
		conf := e.rules.Confidence(ref)
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
//
// The window's hits fall in two halves, and only the candidates that can
// make the top k are scored. A hit whose premise shares a region with the
// query is found by the tree's intersect search over the window key and
// scored by Equation 5 in full. Any other hit has premise similarity 0, so
// its score is its offset's Equation 3 term τ times its confidence: within
// one offset such hits rank by confidence, then ref — the offset's ranked
// list — and the first k of them that share no region are the only ones
// that can win. Across offsets, such a hit scores τ·conf ≤ τ, so the lists
// are read nearest offset first, τ falling, and not at all once τ is below
// the k-th best score already held (the threshold rule of Fagin, Lotem and
// Naor's aggregation algorithms).
func (e *Engine) backwardQuery(scr *queryScratch, visited []pattern.RegionID, tc, tq, k int) []Prediction {
	period := e.cfg.Period
	tqOff := mod(tq, period)
	radius, ok := e.firstWindow(tqOff, tc, tq)
	if !ok {
		return nil
	}
	ct := e.enc.ConsequenceTable()
	// Equation 3 reads a hit only through its consequence offset: the
	// offsets are scored here, once each, by time id, and a hit looks its
	// score up.
	tab := scr.timeScore[:0]
	for _, off := range ct.Offsets() {
		dist := circularDist(tqOff, off, period)
		tab = append(tab, 1-float64(dist)/float64(radius+1)) // Equation 3
	}
	scr.timeScore = tab
	cands := scr.cands[:0]
	var best kthBest
	if 0 < k && k <= len(best.top) {
		best.k = k
	}
	var qrk bitkey.Key
	if len(visited) > 0 {
		qrk = e.enc.RegionTable().PremiseKey(visited)
		qk := bitkey.PatternKey{CK: consequenceWindowKey(ct, tqOff, radius, period), RK: qrk}
		e.stats.nodesVisited.Add(int64(e.tree.SearchIntersect(qk, func(ref, tid int, rk bitkey.Key) bool {
			// Equation 5, or 4 with the penalty off: premise term plus time
			// term, weighted by confidence.
			conf := e.rules.Confidence(ref)
			sr := PremiseSimilarity(rk, qrk, e.cfg.Weight)
			if e.cfg.PenalizePremise {
				sr = sr * float64(e.cfg.DistantThreshold) / float64(tq-tc)
			}
			score := (sr + tab[tid]) * conf
			cands = append(cands, candidate{score: score, conf: conf, ref: ref})
			best.offer(score)
			return true
		})))
	}
	tail := func(off int) {
		if e.liveAt[off] == 0 {
			return
		}
		l := e.rankedAt(off)
		tau := tab[l.tid]
		taken := 0
		for _, ref := range l.entries {
			if taken >= k {
				break
			}
			if len(visited) > 0 && e.sharesRegion(int(ref), qrk) {
				continue // scored above
			}
			conf := e.rules.Confidence(int(ref))
			cands = append(cands, candidate{score: tau * conf, conf: conf, ref: int(ref)})
			best.offer(tau * conf)
			taken++
		}
	}
	// Distance d holds offsets lo and hi, tqOff ± d, one offset when d is 0
	// or half the period; no offset is further than half a period away, so
	// a window of 2·radius+1 ≥ Period reads each offset once. A τ level
	// with the k-th best score still reads its offsets: an entry that ties
	// it may win on confidence or ref.
	for d, lo, hi := 0, tqOff, tqOff; d <= min(radius, period/2); d++ {
		if best.below(1 - float64(d)/float64(radius+1)) {
			break
		}
		tail(lo)
		if hi != lo {
			tail(hi)
		}
		if lo--; lo < 0 {
			lo = period - 1
		}
		if hi++; hi == period {
			hi = 0
		}
	}
	scr.cands = cands
	return e.topK(cands, k, PathBackward)
}

// kthBest keeps the best k scores offered, best first, when k fits its
// buffer; BQP stops reading ranked lists once their τ is below the k-th.
// With k == 0 it keeps none, and BQP reads every offset of its window.
type kthBest struct {
	top  [8]float64
	n, k int
}

// offer records one candidate's score.
func (b *kthBest) offer(s float64) {
	if b.k == 0 || (b.n == b.k && s <= b.top[b.k-1]) {
		return
	}
	i := min(b.n, b.k-1)
	for ; i > 0 && b.top[i-1] < s; i-- {
		b.top[i] = b.top[i-1]
	}
	b.top[i] = s
	b.n = min(b.n+1, b.k)
}

// below reports whether a score of at most tau ranks behind the k best
// offered, so cannot be among the top k.
func (b *kthBest) below(tau float64) bool {
	return b.k > 0 && b.n == b.k && tau < b.top[b.k-1]
}

// rankedList is one consequence offset's live refs in BQP's order for hits
// that share no region with the query: confidence descending, then ref
// ascending. tid is the offset's time id, which never changes once
// assigned. A stale list holds the offset's live refs in no particular
// order, and may hold retired ones: a mutator marked it, and the next
// rankedAt re-ranks it. Only mutators, which run apart from queries, write
// a published list, and rankedAt a stale one's entries, which no query
// reads.
type rankedList struct {
	tid     int
	stale   bool
	entries []int32
}

// rankEntry is what a build sorts: one live pattern of an offset's ranked
// list with the confidence its table row holds.
type rankEntry struct {
	conf float64
	ref  int32
}

// before reports whether a ranks ahead of b in a ranked list.
func (a rankEntry) before(b rankEntry) bool {
	return a.conf > b.conf || (a.conf == b.conf && a.ref < b.ref)
}

// sortRanked sorts a freshly built list: a quicksort over before, which the
// compiler inlines, down to runs of 12 that an insertion sort finishes. The
// sort is most of what a build costs beyond its search — and every offset a
// store's fleet-index bucket build touches is built — so it avoids
// slices.SortFunc's indirect call per comparison.
func sortRanked(s []rankEntry) {
	for len(s) > 12 {
		// Median of three as the pivot; refs are distinct, so no two entries
		// tie and the partition always makes progress.
		a, b, c := 0, len(s)/2, len(s)-1
		if s[b].before(s[a]) {
			a, b = b, a
		}
		if s[c].before(s[b]) {
			b, c = c, b
			if s[b].before(s[a]) {
				a, b = b, a
			}
		}
		p := s[b]
		i, j := 0, len(s)-1
		for i <= j {
			for s[i].before(p) {
				i++
			}
			for p.before(s[j]) {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i, j = i+1, j-1
			}
		}
		// Recurse into the shorter side, loop on the longer.
		if j+1 < len(s)-i {
			sortRanked(s[:j+1])
			s = s[i:]
		} else {
			sortRanked(s[i:])
			s = s[:j+1]
		}
	}
	for i := 1; i < len(s); i++ {
		x, j := s[i], i
		for ; j > 0 && x.before(s[j-1]); j-- {
			s[j] = s[j-1]
		}
		s[j] = x
	}
}

// rankedAt returns the ranked list of a consequence offset that holds a live
// pattern. An offset's first use builds it from the tree; a list a mutator
// marked stale is re-ranked from its own members, without a search: retired
// refs dropped, the others sorted by the confidences their rows now hold.
// Concurrent queries build or re-rank a list once: the work runs under
// rankMu and publishes a fresh list through the atomic pointer.
func (e *Engine) rankedAt(off int) *rankedList {
	if l := e.ranked[off].Load(); l != nil && !l.stale {
		return l
	}
	e.rankMu.Lock()
	defer e.rankMu.Unlock()
	old := e.ranked[off].Load()
	if old != nil && !old.stale {
		return old
	}
	scratch := rankScratch.Get().(*[]rankEntry)
	sorted := (*scratch)[:0]
	l := &rankedList{}
	if old != nil {
		for _, ref := range old.entries {
			if !e.dead[ref] {
				sorted = append(sorted, rankEntry{conf: e.rules.Confidence(int(ref)), ref: ref})
			}
		}
		// No query reads a stale list's entries, so they are rewritten in
		// place.
		l.tid, l.entries = old.tid, old.entries[:len(sorted)]
		e.stats.rankReranks.Add(1)
	} else {
		l.tid, _ = e.enc.ConsequenceTable().TimeID(off)
		q := bitkey.NewPatternKey(e.enc.ConsequenceTable().Len(), e.enc.RegionTable().Len())
		q.CK.Set(l.tid + 1)
		e.tree.SearchConsequence(q, func(ref, _ int, _ bitkey.Key) bool {
			sorted = append(sorted, rankEntry{conf: e.rules.Confidence(ref), ref: int32(ref)})
			return true
		})
		l.entries = make([]int32, len(sorted))
		e.stats.rankBuilds.Add(1)
	}
	sortRanked(sorted)
	for i, r := range sorted {
		l.entries[i] = r.ref
	}
	*scratch = sorted
	rankScratch.Put(scratch)
	e.ranked[off].Store(l)
	return l
}

// rankScratch holds the (confidence, ref) pairs ranked-list builds sort.
var rankScratch = sync.Pool{New: func() any { return new([]rankEntry) }}

// sharesRegion reports whether ref's premise names a region set in qrk —
// the tree's intersect predicate, read from the pattern instead of its key.
func (e *Engine) sharesRegion(ref int, qrk bitkey.Key) bool {
	for _, id := range e.rules.Premise(ref) {
		if qrk.Bit(int(id) + 1) {
			return true
		}
	}
	return false
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
	return e.enc.RegionTable().Region(e.rules.Consequence(ref))
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

// PredictVia answers a query down one named route, as a batch of one time:
// PathFallback asks the motion function alone, PathMarkov the chain and then
// the motion function, and PathForward or PathBackward the hybrid dispatch,
// which picks FQP or BQP by the query's distance itself. Predict,
// FallbackQuery and MarkovQuery are its forms. The store answers a named
// route through it, so the evaluator can label each answer with the route
// that was asked for.
func (e *Engine) PredictVia(route Path, q Query) ([]Prediction, error) {
	if _, err := currentTime(q.Recent, q.Tq); err != nil {
		return nil, err
	}
	return e.predictEach(q.Recent, []int{q.Tq}, max(q.K, 1), route, true)[0], nil
}

// FallbackQuery answers a query with the motion-function fallback alone,
// bypassing the pattern paths. Counts as a fallback (or unanswered) query in
// the stats.
func (e *Engine) FallbackQuery(q Query) ([]Prediction, error) { return e.PredictVia(PathFallback, q) }

// MarkovQuery answers a query with the Markov region chain alone,
// bypassing the pattern paths and falling through to the motion function
// when the chain cannot answer. Counts as a markov (or fallback/unanswered)
// query in the stats.
func (e *Engine) MarkovQuery(q Query) ([]Prediction, error) { return e.PredictVia(PathMarkov, q) }

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
