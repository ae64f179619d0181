package store

import (
	"errors"
	"fmt"
	"sort"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/parallel"
	"hpm/internal/spatial"
)

// Fleet-wide predictive queries: the store maintains a uniform-grid index
// (internal/spatial) over every object's *predicted* positions at a fixed
// set of horizon buckets, refreshed incrementally — on every acknowledged
// observe, when a first train is installed, and on restart recovery — so
// QueryRange/QueryNearest answer "which objects will be inside R / nearest P
// at horizon h?" from cached predictions without fitting a single model.
// ScanRange/ScanNearest are the O(N) brute-force oracles the experiments
// and property tests compare against: they recompute every object's
// prediction on the spot, quantized to the same horizon bucket, and the
// indexed answers are identical to theirs.

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
// every configured horizon and re-bins them — one PredictBatch against the
// live predictor (at most one fallback fit, thanks to the engine's fit
// cache), or pure velocity extrapolation while untrained. Called with
// obj.mu held for writing on every acknowledged observe, after a first
// train's install, and during restart recovery; queries therefore never fit models.
func (s *Store) indexUpdateLocked(obj *object) {
	// A removed object's entries are gone and its id may already belong to
	// a successor: a train that was in flight during Remove stops here.
	if s.index == nil || obj.removed || len(obj.track) == 0 {
		return
	}
	n := len(obj.track)
	last := obj.track[n-1]
	vel := s.velLocked(obj)
	// Untrained entries are a pure function of (last, vel): when neither
	// changed, the stored entries are already exact, so skip before
	// building anything. Trained objects never take this path — their
	// predictions move with the query time even when the object does not.
	if obj.predictor == nil && obj.idxClean && last == obj.idxLast && vel == obj.idxVel {
		return
	}
	horizons := s.index.Horizons()
	now := obj.base + n - 1
	var preds [][]hpm.Prediction
	if obj.predictor != nil {
		tqs := obj.idxTqs[:0]
		for _, h := range horizons {
			tqs = append(tqs, now+h)
		}
		obj.idxTqs = tqs
		// The predictor is queried directly — not via Store.Predict — so
		// index refreshes are never parked in the evaluator ring.
		preds, _ = obj.predictor.PredictBatch(s.recentLocked(obj), tqs, 1)
	}
	entries := obj.idxEntries[:0]
	for i, h := range horizons {
		var p []hpm.Prediction
		if preds != nil {
			p = preds[i]
		}
		entries = append(entries, indexEntryFor(h, p, last, vel))
	}
	obj.idxEntries = entries
	obj.idxLast, obj.idxVel, obj.idxClean = last, vel, true
	if obj.slot == 0 {
		obj.slot = s.index.Add(obj.id)
	}
	s.index.Set(obj.slot, entries)
}

// unindexLocked drops the object's fleet-index entries and frees its slot.
// Called with obj.mu held for writing, once obj.removed is set, so no later
// refresh re-adds it.
func (s *Store) unindexLocked(obj *object) {
	if s.index != nil {
		s.index.Drop(obj.slot)
		obj.slot = 0
	}
}

// rebuildIndex recomputes every object's entries — restart recovery, where
// tracks were restored without passing through the observe path. Objects
// are independent (spatial.Index is safe for arbitrary interleaving), so
// the work fans out across the persistence workers.
func (s *Store) rebuildIndex() {
	if s.index == nil {
		return
	}
	var objs []*object
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, obj := range sh.objects {
			objs = append(objs, obj)
		}
		sh.mu.RUnlock()
	}
	parallel.For(len(objs), s.workers, func(i int) {
		obj := objs[i]
		obj.lockWrite()
		s.indexUpdateLocked(obj)
		obj.mu.Unlock()
	})
}

// forEachObject visits every tracked object, one shard at a time. Objects
// added or removed mid-walk may or may not be visited.
func (s *Store) forEachObject(fn func(id string, obj *object)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		ids := make([]string, 0, len(sh.objects))
		objs := make([]*object, 0, len(sh.objects))
		for id, obj := range sh.objects {
			ids = append(ids, id)
			objs = append(objs, obj)
		}
		sh.mu.RUnlock()
		for j, obj := range objs {
			fn(ids[j], obj)
		}
	}
}

func validateFleetQuery(horizon int) error {
	if horizon <= 0 {
		return fmt.Errorf("store: horizon must be positive, got %d", horizon)
	}
	return nil
}

// QueryRange returns every object whose cached predicted position at the
// bucket covering `horizon` (ticks after each object's latest observation)
// lies inside r, sorted by id. Answered entirely from the index: no model
// is fitted, no track is locked.
func (s *Store) QueryRange(r hpm.Rect, horizon int) ([]spatial.Result, error) {
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if !r.IsValid() {
		return nil, fmt.Errorf("store: invalid rect %v", r)
	}
	return s.index.Range(r, horizon), nil
}

// QueryNearest returns the k objects whose cached predicted positions at
// the bucket covering `horizon` are closest to p, ascending by distance.
func (s *Store) QueryNearest(p hpm.Point, k, horizon int) ([]spatial.Result, error) {
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("store: k must be positive, got %d", k)
	}
	if !p.IsFinite() {
		return nil, fmt.Errorf("store: non-finite query point")
	}
	return s.index.Nearest(p, k, horizon), nil
}

// ScanRange answers a range query by brute force: every object's prediction
// at the same quantized horizon is recomputed on the spot. It is the oracle
// the index is validated against and the baseline the fleetquery experiment
// measures; production traffic should use QueryRange.
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
	s.forEachObject(func(id string, obj *object) {
		e, ok := s.scanEntry(obj, bh)
		if ok && r.Contains(e.Pos) {
			out = append(out, spatial.Result{ID: id, Pos: e.Pos, Path: e.Path, Horizon: bh})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// ScanNearest answers a kNN query by brute force over every object.
func (s *Store) ScanNearest(p hpm.Point, k, horizon int) ([]spatial.Result, error) {
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("store: k must be positive, got %d", k)
	}
	if !p.IsFinite() {
		return nil, fmt.Errorf("store: non-finite query point")
	}
	bh := s.index.BucketHorizon(horizon)
	var out []spatial.Result
	s.forEachObject(func(id string, obj *object) {
		e, ok := s.scanEntry(obj, bh)
		if !ok {
			return
		}
		out = append(out, spatial.Result{ID: id, Pos: e.Pos, Path: e.Path, Horizon: bh, Dist: e.Pos.Dist(p)})
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
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

// SpatialStats reports the fleet index's shape and traffic counters; the
// zero value when no index is configured.
func (s *Store) SpatialStats() spatial.Stats {
	if s.index == nil {
		return spatial.Stats{}
	}
	return s.index.Stats()
}

// FleetIndexEnabled reports whether the store maintains a fleet index.
func (s *Store) FleetIndexEnabled() bool { return s.index != nil }

// FleetBucketHorizon reports which bucket a query horizon is answered from
// (0 when no index is configured).
func (s *Store) FleetBucketHorizon(h int) int {
	if s.index == nil {
		return 0
	}
	return s.index.BucketHorizon(h)
}

// FleetHorizons returns the index's horizon buckets (nil when disabled).
func (s *Store) FleetHorizons() []int {
	if s.index == nil {
		return nil
	}
	return s.index.Horizons()
}
