package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"hpm"
	"hpm/internal/evalq"
)

// TestQueryTimeBoundedOnEveryPredictCall: every predict entry point refuses
// a query time more than MaxHorizon past the object's current time with
// ErrTooFar, and PredictRange a range wider than MaxRange with
// ErrRangeTooLarge, at once. The object never repeats itself, so no pattern
// and no chain stands between a query and the motion function, whose
// recurrence a far time would iterate once per tick under the object's read
// lock.
func TestQueryTimeBoundedOnEveryPredictCall(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	pts := make([]hpm.Point, 4*period)
	for i := range pts {
		pts[i] = hpm.Pt(10+3*float64(i), 20+2*float64(i))
	}
	if err := s.ObserveBatch("drifter", pts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	now, _ := s.Now("drifter")
	ctx := context.Background()
	far := now + MaxHorizon + 1

	refused := func(name string, want error, call func() error) {
		t.Helper()
		start := time.Now()
		if err := call(); !errors.Is(err, want) {
			t.Errorf("%s: %v, want %v", name, err, want)
		}
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want < 100ms", name, el)
		}
	}
	refused("Predict", ErrTooFar, func() error { _, err := predict(s, "drifter", far, 1); return err })
	refused("PredictContext", ErrTooFar, func() error { _, err := s.PredictContext(ctx, "drifter", far, 1); return err })
	refused("predictAhead", ErrTooFar, func() error {
		_, _, err := predictAhead(s, "drifter", MaxHorizon+1, 1)
		return err
	})
	refused("PredictBatch", ErrTooFar, func() error {
		_, err := s.PredictBatchContext(context.Background(), "drifter", []int{now + 5, far}, 1)
		return err
	})
	refused("PredictBatchContext", ErrTooFar, func() error {
		_, err := s.PredictBatchContext(ctx, "drifter", []int{far, now + 5}, 1)
		return err
	})
	refused("PredictBatchAheadContext", ErrTooFar, func() error {
		_, _, err := s.PredictBatchAheadContext(ctx, "drifter", []int{5, MaxHorizon + 1}, 1)
		return err
	})
	refused("PredictRange", ErrTooFar, func() error { _, err := s.PredictRangeContext(context.Background(), "drifter", far-5, far); return err })
	refused("PredictRangeContext", ErrTooFar, func() error {
		_, err := s.PredictRangeContext(ctx, "drifter", far-5, far)
		return err
	})
	for _, route := range []evalq.Path{evalq.PathForward, evalq.PathBackward, evalq.PathFallback, evalq.PathMarkov} {
		refused("PredictVia "+route.String(), ErrTooFar, func() error { _, err := s.PredictVia("drifter", route, far, 1); return err })
	}
	refused("PredictRange wide", ErrRangeTooLarge, func() error {
		_, err := s.PredictRangeContext(context.Background(), "drifter", now+1, now+2+MaxRange)
		return err
	})
	refused("unknown object", ErrUnknownObject, func() error { _, err := predict(s, "nobody", far, 1); return err })

	// The bounds themselves are admitted.
	if preds, err := predict(s, "drifter", now+MaxHorizon, 1); err != nil || len(preds) != 1 {
		t.Errorf("Predict at now+MaxHorizon: %v, %v", preds, err)
	}
	if preds, err := s.PredictRangeContext(context.Background(), "drifter", now+1, now+1+MaxRange); err != nil || len(preds) != MaxRange+1 {
		t.Errorf("PredictRange of MaxRange+1 times: %d predictions, %v", len(preds), err)
	}
}
