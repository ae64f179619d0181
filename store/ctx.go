package store

import (
	"context"
	"fmt"

	"hpm"
	"hpm/internal/spatial"
)

// Context-aware entry points. The serve layer threads each request's
// context here, so client disconnects and per-request deadlines cancel
// work instead of computing answers nobody reads.
//
// Cancellation semantics differ by path. Queries are side-effect free and
// may be abandoned at any check. Observes have a point of no return: once
// a record is staged into a WAL group commit it WILL be written, and a
// record that is durable but not applied in memory would collide with a
// later write at the same track offset on replay. So observe paths check
// the context only before staging; a nil return always means the
// observation is durable and applied, and a ctx error always means it is
// neither.

// ObserveBatchContext is ObserveBatch with request-scoped cancellation,
// honored only up to the WAL commit (see above): a one-object
// ObserveAllContext.
func (s *Store) ObserveBatchContext(ctx context.Context, id string, locs []hpm.Point) error {
	return s.ObserveAllContext(ctx, []Observation{{ID: id, Points: locs}})
}

// QueryRangeContext returns every object whose cached predicted position
// at the bucket covering `horizon` (ticks after each object's latest
// observation) lies inside r, sorted by id, unless ctx is done first.
// Answered from the index: once the bucket is built, no model is fitted and
// no track is locked. The first query of a bucket builds it (readBucket).
func (s *Store) QueryRangeContext(ctx context.Context, r hpm.Rect, horizon int) ([]spatial.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if !r.IsValid() {
		return nil, fmt.Errorf("store: invalid rect %v", r)
	}
	s.readBucket(horizon)
	return s.index.Range(r, horizon), nil
}

// QueryNearestContext returns the k objects whose cached predicted
// positions at the bucket covering `horizon` are closest to p, ascending by
// distance, unless ctx is done first. Like QueryRangeContext, the first
// query of a bucket builds it.
func (s *Store) QueryNearestContext(ctx context.Context, p hpm.Point, k, horizon int) ([]spatial.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
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
	s.readBucket(horizon)
	return s.index.Nearest(p, k, horizon), nil
}
