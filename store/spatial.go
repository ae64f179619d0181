package store

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/parallel"
	"hpm/internal/spatial"
)

// Fleet-wide predictive queries: the store maintains a uniform-grid index
// (internal/spatial) over every object's *predicted* positions at a fixed
// set of horizon buckets, refreshed incrementally — on every acknowledged
// observe and when a first train is installed — so QueryRangeContext and
// QueryNearestContext answer "which objects will be inside R / nearest P
// at horizon h?" from cached predictions. A bucket is maintained only once
// a fleet query has read it (it is then "live", and stays live for the
// store's life): the first query of a bucket builds it by refreshing every
// object, the one time a fleet query pays for predictions; every later
// query fits no model.
// ScanRange (and its kNN twin, which only the tests call and which lives in
// spatial_test.go) is the O(N) brute-force oracle the benchmark harness and
// property tests compare against: it recomputes every object's prediction
// on the spot, quantized to the same horizon bucket, and the indexed
// answers are identical to its.

// ErrNoFleetIndex is returned by fleet query methods when the store was
// built without Options.FleetIndex.
var ErrNoFleetIndex = errors.New("store: fleet index not enabled")

// pathExtrapolation tags index entries for objects that cannot answer from
// a model (untrained, or a horizon the predictor left unanswered): the
// position is the last observation extrapolated by the recent velocity.
const pathExtrapolation = "extrapolation"

// indexVelWindow is how many trailing deltas the per-tick velocity estimate
// averages over.
const indexVelWindow = 4

// initFleetIndex builds s.index from s.opts.FleetIndex; nil disables.
// Horizons default to the evaluator's buckets so fleet queries quantize to
// the same grid the accuracy matrix is scored on. Both bucket by the first
// bound at or above a horizon, so both must ascend strictly: the evaluator's
// buckets are refused otherwise even without an index, and the index's
// horizons must also fit spatial.MaxHorizons.
func (s *Store) initFleetIndex() error {
	if err := evalq.CheckBuckets(s.opts.Eval.Buckets); err != nil {
		return fmt.Errorf("store: Eval.Buckets: %w", err)
	}
	fc := s.opts.FleetIndex
	if fc == nil {
		return nil
	}
	cfg := *fc
	if cfg.CellSize <= 0 {
		return errors.New("store: FleetIndex.CellSize must be positive")
	}
	if len(cfg.Horizons) == 0 {
		cfg.Horizons = append([]int(nil), s.opts.Eval.Buckets...)
	}
	if err := spatial.CheckHorizons(cfg.Horizons); err != nil {
		return fmt.Errorf("store: FleetIndex.Horizons (Eval.Buckets when unset): %w", err)
	}
	s.index = spatial.New(cfg)
	return nil
}

// velLocked estimates the object's per-tick velocity from the track tail.
// Called with obj.mu at least read-locked.
func (s *Store) velLocked(obj *object) hpm.Point {
	n := len(obj.track)
	if n < 2 {
		return hpm.Point{}
	}
	w := indexVelWindow
	if w > n-1 {
		w = n - 1
	}
	return obj.track[n-1].Sub(obj.track[n-1-w]).Scale(1 / float64(w))
}

// indexEntryFor shapes one index entry from a prediction (or, when the
// model had no answer or produced a non-finite location, from velocity
// extrapolation of the last observation). Shared by the incremental index
// refresh and the brute-force scans so both compute byte-identical entries.
func indexEntryFor(h int, preds []hpm.Prediction, last, vel hpm.Point) spatial.Entry {
	e := spatial.Entry{Horizon: h}
	if len(preds) > 0 && preds[0].Location.IsFinite() {
		e.Pos, e.Path = preds[0].Location, preds[0].Path.String()
		return e
	}
	e.Pos, e.Path = last.Add(vel.Scale(float64(h))), pathExtrapolation
	return e
}

// indexUpdateLocked recomputes the object's cached prediction entries at
// every live horizon bucket and re-bins them — one PredictBatch against the
// live predictor (at most one fallback fit, thanks to the engine's fit
// cache), or pure velocity extrapolation while untrained. Until a fleet
// query has read some bucket it does nothing. Called with obj.mu held for
// writing on every acknowledged observe, after a first train's install,
// and by a bucket's build (readBucket).
func (s *Store) indexUpdateLocked(obj *object) {
	if s.index == nil || len(obj.track) == 0 {
		return
	}
	// Read under obj.mu: a build that sets a bit after this load visits
	// the object after this refresh (readBucket).
	live := s.idxLive.Load()
	if live == 0 {
		return
	}
	n := len(obj.track)
	last := obj.track[n-1]
	vel := s.velLocked(obj)
	// Untrained entries are a pure function of (last, vel) at the live
	// buckets: when none of the three changed, the stored entries are
	// already exact, so skip before building anything. Trained objects
	// never take this path — their predictions move with the query time
	// even when the object does not.
	if obj.predictor == nil && obj.idxLive == live && last == obj.idxLast && vel == obj.idxVel {
		return
	}
	now := obj.base + n - 1
	entries, tqs := obj.idxEntries[:0], obj.idxTqs[:0]
	for b, h := range s.index.Horizons() {
		if live&(1<<b) != 0 {
			entries = append(entries, spatial.Entry{Horizon: h})
			tqs = append(tqs, now+h)
		}
	}
	var preds [][]hpm.Prediction
	if obj.predictor != nil {
		// The predictor is queried directly — not via PredictContext — so
		// index refreshes are never parked in the evaluator ring.
		preds, _ = obj.predictor.PredictBatch(s.recentLocked(obj), tqs, 1)
	}
	for i, e := range entries {
		var p []hpm.Prediction
		if preds != nil {
			p = preds[i]
		}
		entries[i] = indexEntryFor(e.Horizon, p, last, vel)
	}
	obj.idxEntries, obj.idxTqs = entries, tqs
	obj.idxLast, obj.idxVel, obj.idxLive = last, vel, live
	if obj.slot == 0 {
		obj.slot = s.index.Add(obj.id)
	}
	s.index.Set(obj.slot, entries)
}

// readBucket makes the bucket that answers horizon live and, the first
// time, builds it: every object is refreshed, fanned out across the
// workers, and only then is the bucket marked built, so no query answers
// from it half filled. The live bit is set before the walk lists the
// objects, and a write reads the live word under its object's lock: either
// that refresh saw the bit, or the walk visits the object after it, or the
// object was listed too late and its first refresh saw the bit. Every
// acknowledged write is in the bucket once the walk ends.
func (s *Store) readBucket(horizon int) {
	hs := s.index.Horizons()
	bit := uint64(1) << min(sort.SearchInts(hs, horizon), len(hs)-1)
	if s.idxBuilt.Load()&bit != 0 {
		return
	}
	s.idxBuildMu.Lock()
	defer s.idxBuildMu.Unlock()
	if s.idxBuilt.Load()&bit != 0 {
		return
	}
	start := time.Now()
	s.idxLive.Store(s.idxLive.Load() | bit)
	objs := s.listObjects()
	parallel.For(len(objs), s.workers, func(i int) {
		obj := objs[i]
		obj.lockWrite()
		s.indexUpdateLocked(obj)
		obj.mu.Unlock()
	})
	s.idxBuilt.Store(s.idxBuilt.Load() | bit)
	s.idxBuilds.Add(1)
	s.idxBuildNanos.Add(uint64(time.Since(start)))
}

// listObjects returns every tracked object, one shard at a time. Objects
// added mid-walk may or may not be listed.
func (s *Store) listObjects() []*object {
	var objs []*object
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, obj := range sh.objects {
			objs = append(objs, obj)
		}
		sh.mu.RUnlock()
	}
	return objs
}

func validateFleetQuery(horizon int) error {
	if horizon <= 0 {
		return fmt.Errorf("store: horizon must be positive, got %d", horizon)
	}
	return nil
}

// ScanRange answers a range query by brute force: every object's prediction
// at the same quantized horizon is recomputed on the spot. It is the oracle
// the index is validated against and the baseline BenchmarkFleetQuery
// measures; production traffic should use QueryRangeContext.
func (s *Store) ScanRange(r hpm.Rect, horizon int) ([]spatial.Result, error) {
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if !r.IsValid() {
		return nil, fmt.Errorf("store: invalid rect %v", r)
	}
	bh := s.index.BucketHorizon(horizon)
	var out []spatial.Result
	for _, obj := range s.listObjects() {
		e, ok := s.scanEntry(obj, bh)
		if ok && r.Contains(e.Pos) {
			out = append(out, spatial.Result{ID: obj.id, Pos: e.Pos, Path: e.Path, Horizon: bh})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// scanEntry recomputes one object's entry at the (already quantized)
// horizon, mirroring indexUpdateLocked exactly — same batch query path,
// same extrapolation — under the object's read lock.
func (s *Store) scanEntry(obj *object, bh int) (spatial.Entry, bool) {
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	n := len(obj.track)
	if n == 0 {
		return spatial.Entry{}, false
	}
	now := obj.base + n - 1
	vel := s.velLocked(obj)
	var preds []hpm.Prediction
	if obj.predictor != nil {
		if batch, err := obj.predictor.PredictBatch(s.recentLocked(obj), []int{now + bh}, 1); err == nil {
			preds = batch[0]
		}
	}
	return indexEntryFor(bh, preds, obj.track[n-1], vel), true
}

// FleetBucketHorizon reports which bucket a query horizon is answered from
// (0 when no index is configured).
func (s *Store) FleetBucketHorizon(h int) int {
	if s.index == nil {
		return 0
	}
	return s.index.BucketHorizon(h)
}
