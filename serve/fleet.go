package serve

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hpm"
	"hpm/store"
)

// Fleet-wide predictive queries, served from the store's incrementally
// maintained spatial index (Options.FleetIndex):
//
//	GET /query/range?minx=&miny=&maxx=&maxy=&horizon=H
//	GET /query/knn?x=&y=&k=K&horizon=H
//	GET /subscribe?minx=&miny=&maxx=&maxy=&horizon=H&interval_ms=N  (SSE)
//
// Both queries answer from cached predictions — no model is fitted on the
// request path — and return each matching object's predicted position plus
// the answering-path tag. /subscribe pushes the range result as
// server-sent events: one immediately, then one per interval until the
// client disconnects.

// floatParam parses a float query parameter; absent or malformed values are
// errors (every fleet-query float is required).
func floatParam(q, name string) (float64, error) {
	s := q
	if s == "" {
		return 0, fmt.Errorf("missing %s", name)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed %s=%q: want a number", name, s)
	}
	return v, nil
}

// rectParams parses the minx/miny/maxx/maxy quartet shared by /query/range
// and /subscribe.
func rectParams(r *http.Request) (hpm.Rect, error) {
	q := r.URL.Query()
	var rect hpm.Rect
	var err error
	if rect.Min.X, err = floatParam(q.Get("minx"), "minx"); err != nil {
		return rect, err
	}
	if rect.Min.Y, err = floatParam(q.Get("miny"), "miny"); err != nil {
		return rect, err
	}
	if rect.Max.X, err = floatParam(q.Get("maxx"), "maxx"); err != nil {
		return rect, err
	}
	if rect.Max.Y, err = floatParam(q.Get("maxy"), "maxy"); err != nil {
		return rect, err
	}
	return rect, nil
}

func handleQueryRange(st *store.Store, w http.ResponseWriter, r *http.Request) {
	rect, err := rectParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	h, err := intParam(r.URL.Query().Get("horizon"), "horizon", -1)
	if err != nil || h <= 0 {
		writeJSON(w, http.StatusBadRequest, errBody("need a positive horizon"))
		return
	}
	res, err := st.QueryRangeContext(r.Context(), rect, h)
	if err != nil {
		writeError(w, err)
		return
	}
	a := newAnswer()
	a.fleetAnswer(st.FleetBucketHorizon(h), res)
	a.send(w)
}

func handleQueryKNN(st *store.Store, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	x, err := floatParam(q.Get("x"), "x")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	y, err := floatParam(q.Get("y"), "y")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	k, err := intParam(q.Get("k"), "k", -1)
	if err != nil || k <= 0 {
		writeJSON(w, http.StatusBadRequest, errBody("need a positive k"))
		return
	}
	h, err := intParam(q.Get("horizon"), "horizon", -1)
	if err != nil || h <= 0 {
		writeJSON(w, http.StatusBadRequest, errBody("need a positive horizon"))
		return
	}
	res, err := st.QueryNearestContext(r.Context(), hpm.Pt(x, y), k, h)
	if err != nil {
		writeError(w, err)
		return
	}
	a := newAnswer()
	a.fleetAnswer(st.FleetBucketHorizon(h), res)
	a.send(w)
}

// subscribe push cadence bounds: clients pick interval_ms within them.
const (
	minPushInterval     = 20 * time.Millisecond
	defaultPushInterval = time.Second
)

// handleSubscribe streams range-query results as server-sent events. The
// first event is pushed immediately (so a subscriber renders without
// waiting a full interval), then one per interval. Each event re-runs the
// indexed query, so subscribers track ingest, trains, and removals; the
// stream ends when the client disconnects, or when the subscriber table
// fills and this client — stalled past its write deadline — is evicted
// to admit a newcomer.
func (s *server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	st := s.st
	rect, err := rectParams(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	q := r.URL.Query()
	h, err := intParam(q.Get("horizon"), "horizon", -1)
	if err != nil || h <= 0 {
		writeJSON(w, http.StatusBadRequest, errBody("need a positive horizon"))
		return
	}
	ms, err := intParam(q.Get("interval_ms"), "interval_ms", int(defaultPushInterval/time.Millisecond))
	if err != nil || ms < 0 {
		writeJSON(w, http.StatusBadRequest, errBody("malformed interval_ms"))
		return
	}
	interval := time.Duration(ms) * time.Millisecond
	if interval < minPushInterval {
		interval = minPushInterval
	}
	// Validate once before committing to the stream so a bad request still
	// gets a JSON error status.
	if _, err := st.QueryRangeContext(r.Context(), rect, h); err != nil {
		writeError(w, err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusInternalServerError, errBody("streaming unsupported"))
		return
	}

	// eventDue is the instant by which one event write must complete: the
	// per-event write deadline below. Registered in the subscriber table
	// so the eviction policy can spot the client that is blowing it.
	eventDue := func() time.Time { return time.Now().Add(2*interval + 10*time.Second) }
	ctx := r.Context()
	var handle int
	if s.subs != nil {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		handle, ok = s.subs.add(cancel, eventDue())
		if !ok {
			// Full of clients that are all keeping up: shed the newcomer.
			s.shed.inc("subscribe", "subscribers_full")
			w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
			writeJSON(w, http.StatusTooManyRequests, errBody("subscriber limit reached, retry later"))
			return
		}
		defer s.subs.remove(handle)
		ctx = sctx
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	a := newAnswer()
	defer a.free()
	for seq := 0; ; seq++ {
		res, err := st.QueryRangeContext(ctx, rect, h)
		if err != nil {
			return // the stream ended; an index disabled mid-stream cannot happen
		}
		a.b = a.b[:0]
		a.raw("event: update\ndata: {\"horizon\":")
		a.int(st.FleetBucketHorizon(h))
		a.raw(`,"results":`)
		a.results(res)
		a.raw(`,"seq":`)
		a.int(seq)
		a.raw("}\n\n")
		if a.bad != "" {
			return
		}
		// Long-lived streams must outlive any server write timeout; pushing
		// the deadline per event caps how long a dead client lingers.
		due := eventDue()
		if s.subs != nil {
			s.subs.touch(handle, due)
		}
		_ = rc.SetWriteDeadline(due)
		if _, err := w.Write(a.b); err != nil {
			return
		}
		fl.Flush()
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}
