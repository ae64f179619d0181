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
	return c
}

// CheckBuckets reports whether bs can bucket horizons: Bucket answers from
// the first bound at or above a horizon, so every bound must be positive and
// above the one before it.
func CheckBuckets(bs []int) error {
	for i, b := range bs {
		if b <= 0 || (i > 0 && b <= bs[i-1]) {
			return fmt.Errorf("buckets %v are not positive and strictly ascending", bs)
		}
	}
	return nil
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

	mu    sync.Mutex
	ring  []pending // cfg.RingSize long from the first Record, FIFO from start
	start int
	count int
	cells []Cell // NumBuckets × NumPaths, bucket-major

	recorded uint64 // predictions accepted into the ring
	scored   uint64 // predictions matched against ground truth
	expired  uint64 // ring entries whose timestamp passed unobserved
	evicted  uint64 // ring entries dropped to make room
}

// New returns a tracker with cfg (zero fields defaulted).
func New(cfg Config) *Tracker {
	cfg = cfg.WithDefaults()
	return &Tracker{
		cfg:   cfg,
		cells: make([]Cell, cfg.NumBuckets()*int(NumPaths)),
	}
}

// Config returns the tracker's normalized configuration.
func (t *Tracker) Config() Config { return t.cfg }

// Record parks a served prediction for timestamp tq, made when the
// object's latest observation was now. Predictions at or before now are
// ignored (there is no future truth to wait for). When the ring is full
// the oldest outstanding prediction is evicted.
//
// A prediction identical to one already outstanding — same timestamp,
// path and predicted location — is dropped: it is the same measurement.
// A client polling one answer (the same query repeated before the next
// observation) must not weight that cell of the matrix more than once.
func (t *Tracker) Record(now, tq int, path Path, loc geom.Point) {
	if tq <= now {
		return
	}
	b := t.cfg.Bucket(tq - now)
	t.mu.Lock()
	if t.ring == nil {
		// Most trackers never record (cold objects, write-only traffic),
		// so the ring waits for the first prediction.
		t.ring = make([]pending, t.cfg.RingSize)
	}
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
// predictions were scored.
func (t *Tracker) Observe(base int, pts []geom.Point) (scored int) {
	if len(pts) == 0 {
		return 0
	}
	last := base + len(pts) - 1
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return 0 // fast path: nothing outstanding
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
			cell := &t.cells[p.bucket*int(NumPaths)+int(p.path)]
			cell.Attempts++
			cell.ErrorSum += err
			if err <= t.cfg.HitDistance {
				cell.Hits++
			}
			t.scored++
			scored++
		}
	}
	t.count = kept
	return scored
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
}

// Summary is a complete evaluation snapshot: totals and every horizon ×
// path cell (zero cells included, so scrapes see a stable series set).
type Summary struct {
	Totals
	Cells []CellSnapshot `json:"cells"`
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
	s := Summary{
		Totals: Totals{
			Outstanding: t.count,
			Recorded:    t.recorded,
			Scored:      t.scored,
			Expired:     t.expired,
			Evicted:     t.evicted,
		},
	}
	t.mu.Unlock()
	s.Cells = snapshotCells(t.cfg, cells)
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
