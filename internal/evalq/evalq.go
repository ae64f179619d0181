// Package evalq implements online, prequential evaluation of predictive
// queries (test-then-train): every served prediction is parked in a
// bounded per-object ring until the observation for its query timestamp
// arrives, at which point the prediction is scored against the truth —
// a hit when it lands within a distance threshold D, plus the raw error
// distance — into per-horizon-bucket × per-answering-path counters.
//
// The paper's central claim (§VI–§VII) is that the pattern paths (FQP
// for near queries, BQP for distant ones) beat the motion-function
// fallback as the query horizon grows. These counters reproduce that
// accuracy-vs-horizon comparison *online*, on live traffic, instead of
// in an offline benchmark: each cell of the horizon × path matrix is
// one point of the paper's Figure 5 curves, measured prequentially.
//
// An exponentially weighted moving average of recent error per object
// doubles as a drift detector (NLPMM's observation that movement
// patterns go stale): the store retrains an object early when its EWMA
// crosses a threshold, and an adaptive mode routes each query to the
// path (pattern, Markov chain, or fallback) measured best per
// horizon-bucket — BestPath's N-way argmax.
package evalq

import (
	"fmt"
	"sync"

	"hpm/internal/geom"
	"hpm/internal/hpa"
)

// Path identifies which query processor produced a scored prediction.
// It is the engine's own path enum — one registry (hpa.Paths) defines
// the label space for dispatch, evaluation cells and exporters alike.
type Path = hpa.Path

// The answering paths, re-exported for evaluation call sites.
const (
	PathForward  = hpa.PathForward
	PathBackward = hpa.PathBackward
	PathFallback = hpa.PathFallback
	PathMarkov   = hpa.PathMarkov
	NumPaths     = hpa.NumPaths // number of paths, for sizing cell matrices
)

// Defaults for Config fields left at their zero value.
const (
	DefaultRingSize    = 64
	DefaultHitDistance = 30 // the paper's Eps: within one region radius
	DefaultEWMAAlpha   = 0.1
	// DefaultRouteAlpha smooths the per-cell recency EWMAs BestPath routes
	// by: a few dozen scored predictions to largely forget an old regime,
	// so a path that decays (or a model that improves mid-stream) loses or
	// wins the route within a bounded number of scores instead of being
	// pinned by lifetime averages.
	DefaultRouteAlpha = 1.0 / 32
	// DefaultRouteHitMargin / DefaultRouteErrMargin gate a TAKEOVER: a
	// challenger takes the route from the dispatch default only when its
	// recent hit rate leads by more than the hit margin (absolute), or —
	// within the hit margin — its recent error is lower by more than the
	// relative error margin. The margins are deliberately wide, because an
	// EWMA of a hit indicator fluctuates by several points and a takeover
	// inside that noise band is pure lag-chasing: the route switches to a
	// path right after its good stretch, in time for the bad one. Wide
	// margins alone would also be wrong — a real but moderate lead (say
	// eight points of hit rate, inside the margin) would flicker on
	// tie-breaks forever — so takeover is asymmetric with RELEASE: once a
	// challenger holds the route it keeps it while merely ahead of the
	// default outright, no margin (BestPath's sticky incumbency).
	DefaultRouteHitMargin = 0.10
	DefaultRouteErrMargin = 0.20
)

// DefaultBuckets are the horizon bucket upper bounds, chosen to straddle
// the paper's default distant-time threshold d = 60 so FQP and BQP land
// in disjoint buckets.
var DefaultBuckets = []int{5, 10, 20, 50, 100, 200}

// Config tunes a Tracker. The zero value takes every default.
type Config struct {
	// RingSize bounds the outstanding (not yet scored) predictions kept
	// per object; the oldest is evicted when a new one would overflow.
	RingSize int
	// HitDistance is D: a prediction within this distance of the true
	// location counts as a hit.
	HitDistance float64
	// Buckets are the horizon bucket upper bounds, ascending; a horizon h
	// lands in the first bucket with h <= bound, or the implicit +Inf
	// overflow bucket past the last.
	Buckets []int
	// EWMAAlpha is the smoothing factor of the recent-error EWMA.
	EWMAAlpha float64
	// RouteAlpha is the smoothing factor of the per-cell recency EWMAs
	// (hit rate and error) that BestPath routes by.
	RouteAlpha float64
	// RouteHitMargin and RouteErrMargin are BestPath's takeover
	// hysteresis: the recent-hit-rate lead (absolute) or, within it, the
	// relative recent-error reduction a challenger needs to take the
	// route from the dispatch default. Holding the route needs no margin
	// — see BestPath.
	RouteHitMargin float64
	RouteErrMargin float64
}

// WithDefaults fills zero fields with the package defaults.
func (c Config) WithDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = DefaultRingSize
	}
	if c.HitDistance <= 0 {
		c.HitDistance = DefaultHitDistance
	}
	if len(c.Buckets) == 0 {
		c.Buckets = DefaultBuckets
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = DefaultEWMAAlpha
	}
	if c.RouteAlpha <= 0 || c.RouteAlpha > 1 {
		c.RouteAlpha = DefaultRouteAlpha
	}
	if c.RouteHitMargin <= 0 {
		c.RouteHitMargin = DefaultRouteHitMargin
	}
	if c.RouteErrMargin <= 0 {
		c.RouteErrMargin = DefaultRouteErrMargin
	}
	return c
}

// NumBuckets counts the horizon buckets including the +Inf overflow.
func (c Config) NumBuckets() int { return len(c.Buckets) + 1 }

// Bucket maps a query horizon to its bucket index.
func (c Config) Bucket(horizon int) int {
	for i, b := range c.Buckets {
		if horizon <= b {
			return i
		}
	}
	return len(c.Buckets)
}

// BucketLabel returns the bucket's upper bound as a label ("+Inf" for
// the overflow bucket), Prometheus le-style.
func (c Config) BucketLabel(i int) string {
	if i >= len(c.Buckets) {
		return "+Inf"
	}
	return fmt.Sprintf("%d", c.Buckets[i])
}

// Cell is one horizon-bucket × path accumulator.
type Cell struct {
	Attempts uint64  // predictions scored
	Hits     uint64  // scored within HitDistance of the truth
	ErrorSum float64 // total error distance, for mean error
}

// recentCell is the recency view of one horizon-bucket × path cell: EWMAs
// of the hit indicator and the error distance, updated at score time.
// Routing reads these instead of the lifetime counters in Cell, because a
// route decision is about how a path performs NOW — a model that improved
// after a retrain, or a chain that went stale past its window, should win
// or lose the route within ~1/RouteAlpha scores, not after it outweighs
// its whole history.
type recentCell struct {
	hit float64 // EWMA of the hit indicator: recent hit rate
	err float64 // EWMA of the error distance: recent mean error
	set bool
}

// pending is one outstanding prediction awaiting its ground truth.
type pending struct {
	tq     int // absolute query timestamp
	bucket int // horizon bucket, fixed at record time
	path   Path
	loc    geom.Point
}

// Tracker scores one object's predictions. All methods are safe for
// concurrent use; the internal mutex is held only for ring and counter
// updates, never across model work.
type Tracker struct {
	cfg Config

	mu     sync.Mutex
	ring   []pending // capacity cfg.RingSize, FIFO from start
	start  int
	count  int
	cells  []Cell       // NumBuckets × NumPaths, bucket-major
	recent []recentCell // same shape: the recency view routing reads
	route  []Path       // per bucket: challenger holding the route, or routeNone

	ewma       float64
	ewmaSet    bool
	sinceReset int // predictions scored since the EWMA last reset

	recorded uint64 // predictions accepted into the ring
	scored   uint64 // predictions matched against ground truth
	expired  uint64 // ring entries whose timestamp passed unobserved
	evicted  uint64 // ring entries dropped to make room
}

// routeNone marks a bucket whose route is with the dispatch default —
// no challenger holds it. (Path is unsigned; NumPaths is out of range
// for any real path.)
const routeNone = NumPaths

// New returns a tracker with cfg (zero fields defaulted).
func New(cfg Config) *Tracker {
	cfg = cfg.WithDefaults()
	t := &Tracker{
		cfg:    cfg,
		ring:   make([]pending, cfg.RingSize),
		cells:  make([]Cell, cfg.NumBuckets()*int(NumPaths)),
		recent: make([]recentCell, cfg.NumBuckets()*int(NumPaths)),
		route:  make([]Path, cfg.NumBuckets()),
	}
	for i := range t.route {
		t.route[i] = routeNone
	}
	return t
}

// Config returns the tracker's normalized configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Record parks a served prediction for timestamp tq, made when the
// object's latest observation was now. Predictions at or before now are
// ignored (there is no future truth to wait for). When the ring is full
// the oldest outstanding prediction is evicted.
//
// A prediction identical to one already outstanding — same timestamp,
// path and predicted location — is dropped: it is the same measurement,
// and scoring it twice would double that path's weight in the routing
// matrix. Without this, a path holding the route gets measured by both
// its routed traffic and its shadow call each instant, accumulating
// samples at twice its rivals' rate — so in a worsening regime the
// incumbent's averages degrade twice as fast purely because it is the
// incumbent, and routing plays hot-potato between paths.
func (t *Tracker) Record(now, tq int, path Path, loc geom.Point) {
	if tq <= now {
		return
	}
	b := t.cfg.Bucket(tq - now)
	t.mu.Lock()
	for i := t.count - 1; i >= 0; i-- {
		if p := &t.ring[(t.start+i)%len(t.ring)]; p.tq == tq && p.path == path && p.bucket == b && p.loc == loc {
			t.mu.Unlock()
			return
		}
	}
	if t.count == len(t.ring) {
		t.start = (t.start + 1) % len(t.ring)
		t.count--
		t.evicted++
	}
	t.ring[(t.start+t.count)%len(t.ring)] = pending{tq: tq, bucket: b, path: path, loc: loc}
	t.count++
	t.recorded++
	t.mu.Unlock()
}

// Observe scores the outstanding predictions matured by consecutive
// ground-truth observations: pts[i] is the object's true location at
// timestamp base+i. Predictions whose timestamp falls inside the batch
// are scored; ones whose timestamp is already past (which a gap in the
// timestamp sequence could leave behind) are expired. Returns how many
// predictions were scored, the post-scoring error EWMA, and how many
// predictions have been scored since the EWMA was last reset.
func (t *Tracker) Observe(base int, pts []geom.Point) (scored int, ewma float64, sinceReset int) {
	if len(pts) == 0 {
		return 0, 0, 0
	}
	last := base + len(pts) - 1
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return 0, t.ewma, t.sinceReset // fast path: nothing outstanding
	}
	// Compact the ring in place: score entries the batch covers, expire
	// ones behind it, keep the rest.
	kept := 0
	for i := 0; i < t.count; i++ {
		p := t.ring[(t.start+i)%len(t.ring)]
		switch {
		case p.tq > last: // still in the future
			t.ring[(t.start+kept)%len(t.ring)] = p
			kept++
		case p.tq < base:
			t.expired++
		default:
			err := p.loc.Dist(pts[p.tq-base])
			idx := p.bucket*int(NumPaths) + int(p.path)
			cell := &t.cells[idx]
			cell.Attempts++
			cell.ErrorSum += err
			hit := 0.0
			if err <= t.cfg.HitDistance {
				cell.Hits++
				hit = 1
			}
			rc := &t.recent[idx]
			if rc.set {
				rc.hit += t.cfg.RouteAlpha * (hit - rc.hit)
				rc.err += t.cfg.RouteAlpha * (err - rc.err)
			} else {
				rc.hit, rc.err, rc.set = hit, err, true
			}
			if t.ewmaSet {
				t.ewma += t.cfg.EWMAAlpha * (err - t.ewma)
			} else {
				t.ewma, t.ewmaSet = err, true
			}
			t.sinceReset++
			t.scored++
			scored++
		}
	}
	t.count = kept
	return scored, t.ewma, t.sinceReset
}

// ResetEWMA clears the drift signal — called after a drift-triggered
// retrain so the stale model's errors do not immediately re-trigger.
func (t *Tracker) ResetEWMA() {
	t.mu.Lock()
	t.ewma, t.ewmaSet, t.sinceReset = 0, false, 0
	t.mu.Unlock()
}

// BestPath returns the candidate path measured best at this horizon.
// candidates[0] is the dispatch default — the paper's pattern path — and
// the decision is an asymmetric hysteresis over the per-bucket recency
// EWMAs (not the lifetime counters, so a path's win or loss follows
// regime changes within ~1/RouteAlpha scores):
//
//   - TAKEOVER, hit branch: a challenger with at least minSamples scored
//     predictions whose recent hit rate leads the default's by more than
//     the hit margin takes the route. A hit-rate lead that clears a wide
//     margin is a strong signal on its own — sustained regime changes (a
//     chain that learned the stream, a pattern model gone stale) show up
//     exactly here.
//   - TAKEOVER, error branch: within the hit margin, a challenger whose
//     recent error is lower by more than the relative error margin takes
//     the route only when its lifetime record corroborates the lead
//     (corroborates). The error EWMA is the noise-prone signal: smooth
//     and heavy-tailed, its excursions past the margin linger for
//     ~1/RouteAlpha scores — long enough to capture the route for a
//     damaging stretch — so this branch alone must also win on counters
//     an excursion cannot move.
//   - RELEASE: the challenger currently holding the route keeps it while
//     merely ahead of the default on recency alone, margin- and
//     corroboration-free (betterRaw), and returns the route the moment
//     it falls behind. Moving traffic off the paper's default dispatch
//     demands strong evidence; moving it back is deliberately cheap.
//
// The asymmetry is the point. Symmetric wide margins make a real-but-
// moderate lead (inside the margin) flicker on tie-breaks, switching to
// the challenger right after its good stretch — lag-chasing that can
// score worse than either fixed path. Symmetric narrow margins let noise
// take the route from a clearly better default. Rare, corroborated
// takeover plus cheap release keeps both failure modes out.
func (t *Tracker) BestPath(horizon int, candidates []Path, minSamples uint64) Path {
	if len(candidates) == 0 {
		return PathForward
	}
	def := candidates[0]
	b := t.cfg.Bucket(horizon)
	idx := func(p Path) int { return b*int(NumPaths) + int(p) }
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cells[idx(def)].Attempts < minSamples {
		t.route[b] = routeNone
		return def
	}
	defRC := t.recent[idx(def)]
	if cur := t.route[b]; cur != routeNone && cur != def {
		held := false
		for _, p := range candidates[1:] {
			if p == cur {
				held = true
				break
			}
		}
		if held && t.cells[idx(cur)].Attempts >= minSamples {
			if rc := t.recent[idx(cur)]; rc.set && t.betterRaw(rc, defRC) {
				return cur
			}
		}
		t.route[b] = routeNone
	}
	best, bestRC, bestCell := def, defRC, t.cells[idx(def)]
	for _, p := range candidates[1:] {
		c := t.cells[idx(p)]
		if c.Attempts < minSamples {
			continue
		}
		rc := t.recent[idx(p)]
		take := rc.hit > bestRC.hit+t.cfg.RouteHitMargin
		if !take && rc.hit >= bestRC.hit-t.cfg.RouteHitMargin {
			take = rc.err < bestRC.err*(1-t.cfg.RouteErrMargin) && t.corroborates(c, bestCell)
		}
		if take {
			best, bestRC, bestCell = p, rc, c
		}
	}
	if best != def {
		t.route[b] = best
	}
	return best
}

// corroborates reports whether challenger a's lifetime record backs its
// recent lead over incumbent b: a lifetime hit rate ahead beyond the hit
// margin, or within it and a lower lifetime mean error. A noise
// excursion in the recency EWMAs cannot move these.
func (t *Tracker) corroborates(a, b Cell) bool {
	if a.Attempts == 0 || b.Attempts == 0 {
		return false
	}
	ah := float64(a.Hits) / float64(a.Attempts)
	bh := float64(b.Hits) / float64(b.Attempts)
	if ah > bh+t.cfg.RouteHitMargin {
		return true
	}
	if ah < bh-t.cfg.RouteHitMargin {
		return false
	}
	return a.ErrorSum*float64(b.Attempts) < b.ErrorSum*float64(a.Attempts)
}

// betterRaw is the hold comparison for a route-holding challenger: the
// same shape as the takeover test but with no error margin — ahead on
// recent hit rate beyond the hit margin, or within it and ahead on raw
// recent error. The hit margin still frames the tie window here so that
// a challenger that took the route on the error tie-break is held by the
// same yardstick, instead of being released over an epsilon of hit rate.
func (t *Tracker) betterRaw(a, b recentCell) bool {
	if a.hit > b.hit+t.cfg.RouteHitMargin {
		return true
	}
	if a.hit < b.hit-t.cfg.RouteHitMargin {
		return false
	}
	return a.err < b.err
}

// Totals are a tracker's scalar counters.
type Totals struct {
	Outstanding int    `json:"outstanding"`
	Recorded    uint64 `json:"recorded"`
	Scored      uint64 `json:"scored"`
	Expired     uint64 `json:"expired"`
	Evicted     uint64 `json:"evicted"`
}

// Agg accumulates counters across many trackers sharing one Config —
// the store's fleet-level view.
type Agg struct {
	Totals
	Cells []Cell // NumBuckets × NumPaths, bucket-major; nil until first merge
}

// MergeInto adds the tracker's counters to a.
func (t *Tracker) MergeInto(a *Agg) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.Cells == nil {
		a.Cells = make([]Cell, len(t.cells))
	}
	for i, c := range t.cells {
		a.Cells[i].Attempts += c.Attempts
		a.Cells[i].Hits += c.Hits
		a.Cells[i].ErrorSum += c.ErrorSum
	}
	a.Outstanding += t.count
	a.Recorded += t.recorded
	a.Scored += t.scored
	a.Expired += t.expired
	a.Evicted += t.evicted
}

// CellSnapshot is one horizon × path cell with its labels and derived
// rates, ready for JSON or a metrics exporter.
type CellSnapshot struct {
	HorizonLE string  `json:"horizonLE"` // bucket upper bound, "+Inf" for overflow
	Path      string  `json:"path"`
	Attempts  uint64  `json:"attempts"`
	Hits      uint64  `json:"hits"`
	HitRate   float64 `json:"hitRate"`
	MeanError float64 `json:"meanError"`
	ErrorSum  float64 `json:"errorSum"`
	// The recency view BestPath routes by: EWMAs of the hit indicator and
	// error distance. Populated by a single tracker's Snapshot; a fleet
	// aggregate (Summarize over Agg) has no meaningful merged EWMA and
	// leaves them zero.
	RecentHitRate   float64 `json:"recentHitRate,omitempty"`
	RecentMeanError float64 `json:"recentMeanError,omitempty"`
}

// Summary is a complete evaluation snapshot: totals, the drift signal,
// and every horizon × path cell (zero cells included, so scrapes see a
// stable series set).
type Summary struct {
	Totals
	ErrorEWMA float64        `json:"errorEWMA"`
	Cells     []CellSnapshot `json:"cells"`
}

// Summarize renders an aggregate under its shared config.
func Summarize(cfg Config, a Agg) Summary {
	cfg = cfg.WithDefaults()
	s := Summary{Totals: a.Totals}
	s.Cells = snapshotCells(cfg, a.Cells)
	return s
}

// Snapshot returns the tracker's own summary.
func (t *Tracker) Snapshot() Summary {
	t.mu.Lock()
	cells := append([]Cell(nil), t.cells...)
	recent := append([]recentCell(nil), t.recent...)
	s := Summary{
		Totals: Totals{
			Outstanding: t.count,
			Recorded:    t.recorded,
			Scored:      t.scored,
			Expired:     t.expired,
			Evicted:     t.evicted,
		},
		ErrorEWMA: t.ewma,
	}
	t.mu.Unlock()
	s.Cells = snapshotCells(t.cfg, cells)
	for i := range s.Cells {
		s.Cells[i].RecentHitRate = recent[i].hit
		s.Cells[i].RecentMeanError = recent[i].err
	}
	return s
}

func snapshotCells(cfg Config, cells []Cell) []CellSnapshot {
	out := make([]CellSnapshot, 0, cfg.NumBuckets()*int(NumPaths))
	for b := 0; b < cfg.NumBuckets(); b++ {
		for p := Path(0); p < NumPaths; p++ {
			cs := CellSnapshot{HorizonLE: cfg.BucketLabel(b), Path: p.String()}
			if cells != nil {
				c := cells[b*int(NumPaths)+int(p)]
				cs.Attempts, cs.Hits, cs.ErrorSum = c.Attempts, c.Hits, c.ErrorSum
				if c.Attempts > 0 {
					cs.HitRate = float64(c.Hits) / float64(c.Attempts)
					cs.MeanError = c.ErrorSum / float64(c.Attempts)
				}
			}
			out = append(out, cs)
		}
	}
	return out
}
