package store

import (
	"context"

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

// QueryRangeContext is QueryRange with request-scoped cancellation.
func (s *Store) QueryRangeContext(ctx context.Context, r hpm.Rect, horizon int) ([]spatial.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.QueryRange(r, horizon)
}

// QueryNearestContext is QueryNearest with request-scoped cancellation.
func (s *Store) QueryNearestContext(ctx context.Context, p hpm.Point, k, horizon int) ([]spatial.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.QueryNearest(p, k, horizon)
}
