// Package serve exposes a store.Store as a JSON-over-HTTP API, the shape a
// tracking backend would embed:
//
//	POST /objects/{id}/observe       {"points": [[x, y], ...]}
//	POST /observe                    [{"id": "...", "points": [[x, y], ...]}, ...]
//	POST /flush                      no-op, kept for older clients
//	GET  /objects                    -> {"objects": ["bus-7", ...]}
//	GET  /objects/{id}/stats         -> object summary + query-path counters
//	GET  /objects/{id}/predict?tq=N&k=K        (or horizon=H instead of tq)
//	POST /objects/{id}/predict       {"tqs": [N, ...], "k": K}  (batch; or "horizons")
//	GET  /objects/{id}/trajectory?from=N&to=M  (predicted path, inclusive)
//	GET  /objects/{id}/eval          -> online prediction-quality summary
//	GET  /query/range?minx=&miny=&maxx=&maxy=&horizon=H   predictive range query
//	GET  /query/knn?x=&y=&k=K&horizon=H                   predictive kNN query
//	GET  /subscribe?minx=&...&horizon=H&interval_ms=N     SSE push of a range query
//	GET  /stats                      -> fleet-level counters (JSON)
//	GET  /metrics                    -> same counters, Prometheus text format
//	GET  /healthz                    liveness probe
//	GET  /readyz                     readiness + recovery/training health
//
// Predictions return the location, the provenance (pattern vs motion), the
// ranking score, the pattern confidence, and the consequence region's
// bounding box when a pattern answered. The batch form answers many query
// times in one request against a single snapshot of the object, amortizing
// premise encoding and motion-function fitting across the times. A query
// time more than 2²⁰ ticks past the object's current time is a 400, as are a
// batch of more than 10 000 times and a trajectory of more than 10 001.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"hpm"
	"hpm/store"
)

// maxObserveBody bounds one observe request (1 MiB of JSON ≈ tens of
// thousands of points), protecting the server from unbounded payloads.
const maxObserveBody = 1 << 20

// maxFleetBody bounds one bulk observe request: a fleet tick touches many
// objects, so it gets more headroom than a single-object observe.
const maxFleetBody = 8 << 20

// Handler returns the HTTP handler for the store with admission control
// disabled — the zero Limits — for embedders that do their own limiting.
func Handler(st *store.Store) http.Handler {
	return NewHandler(st, Limits{})
}

// NewHandler returns the HTTP handler for the store with the given
// admission limits. Every endpoint but /subscribe, /healthz, /readyz and
// /metrics passes the admission guard (concurrency limit + deadline +
// shed accounting); the exempt four stay cheap and must answer even when
// the serving paths are saturated, or the operator flies blind exactly
// when it matters.
func NewHandler(st *store.Store, lim Limits) http.Handler {
	s := newServer(st, lim)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /objects", s.guard("objects", classRead, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"objects": st.Objects()})
	}))
	mux.HandleFunc("POST /objects/{id}/observe", s.guard("observe", classWrite, func(w http.ResponseWriter, r *http.Request) {
		handleObserve(st, w, r)
	}))
	// Bulk ingest: one request observes many objects, and on a durable
	// store the whole fleet tick rides a single WAL group commit (one
	// fsync for the entire request).
	mux.HandleFunc("POST /observe", s.guard("observe", classWrite, func(w http.ResponseWriter, r *http.Request) {
		handleObserveFleet(st, w, r)
	}))
	// Flush answers at once, like Store.Flush: every observe has trained
	// or extended its object's model before it returned. The route stays
	// for clients that call it, classed as control work.
	mux.HandleFunc("POST /flush", s.guard("flush", classControl, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"flushed": true})
	}))
	mux.HandleFunc("GET /objects/{id}/stats", s.guard("stats", classRead, func(w http.ResponseWriter, r *http.Request) {
		stats, err := st.Stats(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, stats)
	}))
	mux.HandleFunc("GET /objects/{id}/predict", s.guard("predict", classRead, func(w http.ResponseWriter, r *http.Request) {
		handlePredict(st, w, r)
	}))
	mux.HandleFunc("POST /objects/{id}/predict", s.guard("predict", classRead, func(w http.ResponseWriter, r *http.Request) {
		handlePredictBatch(st, w, r)
	}))
	mux.HandleFunc("GET /objects/{id}/trajectory", s.guard("trajectory", classRead, func(w http.ResponseWriter, r *http.Request) {
		handleTrajectory(st, w, r)
	}))
	mux.HandleFunc("GET /objects/{id}/eval", s.guard("eval", classRead, func(w http.ResponseWriter, r *http.Request) {
		sum, err := st.EvalStats(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, sum)
	}))
	// Fleet-wide predictive queries against the spatial index (answered
	// with 501 Not Implemented when the store runs without
	// Options.FleetIndex).
	mux.HandleFunc("GET /query/range", s.guard("query", classRead, func(w http.ResponseWriter, r *http.Request) {
		handleQueryRange(st, w, r)
	}))
	mux.HandleFunc("GET /query/knn", s.guard("query", classRead, func(w http.ResponseWriter, r *http.Request) {
		handleQueryKNN(st, w, r)
	}))
	// Long-lived SSE streams bypass the request limiters (a deadline or a
	// concurrency token held for minutes would be nonsense) and are capped
	// by the subscriber table instead.
	mux.HandleFunc("GET /subscribe", func(w http.ResponseWriter, r *http.Request) {
		s.handleSubscribe(w, r)
	})
	mux.HandleFunc("GET /stats", s.guard("stats", classRead, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, st.FleetStats())
	}))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		s.handleMetrics(w, r)
	})
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		handleReadyz(st, w, r)
	})
	return mux
}

func handleObserve(st *store.Store, w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxObserveBody)
	var pts []hpm.Point
	if err == nil {
		pts, err = decodeObserve(body)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if len(pts) == 0 {
		writeJSON(w, http.StatusBadRequest, errBody("no points"))
		return
	}
	id := r.PathValue("id")
	if err := st.ObserveBatchContext(r.Context(), id, pts); err != nil {
		writeError(w, err)
		return
	}
	// One read of the object answers all three, so they describe one state.
	stats, _ := st.Stats(id)
	a := newAnswer()
	a.raw(`{"now":`)
	a.int(stats.Points - 1)
	a.raw(`,"trained":`)
	a.bool(stats.Trained)
	a.raw("}")
	a.send(w)
}

func handleObserveFleet(st *store.Store, w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r, maxFleetBody)
	var batch []store.Observation
	if err == nil {
		batch, err = decodeFleet(body)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if len(batch) == 0 {
		writeJSON(w, http.StatusBadRequest, errBody("no observations"))
		return
	}
	points := 0
	for _, ob := range batch {
		if ob.ID == "" {
			writeJSON(w, http.StatusBadRequest, errBody("observation without id"))
			return
		}
		if len(ob.Points) == 0 {
			writeJSON(w, http.StatusBadRequest, errBody("observation for "+ob.ID+" has no points"))
			return
		}
		points += len(ob.Points)
	}
	if err := st.ObserveAllContext(r.Context(), batch); err != nil {
		writeError(w, err)
		return
	}
	ids := make(map[string]bool, len(batch))
	for _, ob := range batch {
		ids[ob.ID] = true
	}
	a := newAnswer()
	a.raw(`{"objects":`)
	a.int(len(ids))
	a.raw(`,"points":`)
	a.int(points)
	a.raw("}")
	a.send(w)
}

func handlePredict(st *store.Store, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	k, err := intParam(q.Get("k"), "k", 1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	tq, err := intParam(q.Get("tq"), "tq", -1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	h, err := intParam(q.Get("horizon"), "horizon", -1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	var preds []hpm.Prediction
	switch {
	case h > 0:
		// The store resolves the current time and answers under one lock
		// hold; the reported tq is the one it answered for.
		var tqs []int
		var out [][]hpm.Prediction
		if tqs, out, err = st.PredictBatchAheadContext(r.Context(), id, []int{h}, k); err == nil {
			tq, preds = tqs[0], out[0]
		}
	case tq >= 0:
		preds, err = st.PredictContext(r.Context(), id, tq, k)
	default:
		writeJSON(w, http.StatusBadRequest, errBody("need tq or horizon"))
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	a := newAnswer()
	a.raw(`{"predictions":`)
	a.predictions(preds)
	a.raw(`,"tq":`)
	a.int(tq)
	a.raw("}")
	a.send(w)
}

// maxPredictBatch bounds one batch-predict request, mirroring the store's
// trajectory range cap (store.MaxRange).
const maxPredictBatch = store.MaxRange

func handlePredictBatch(st *store.Store, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The batch body: absolute query times, or horizons relative to the
	// object's current time (exactly one must be non-empty), and k.
	body, err := readBody(w, r, maxObserveBody)
	var tqs, horizons []int
	var k int
	if err == nil {
		tqs, horizons, k, err = decodeBatch(body)
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if (len(tqs) == 0) == (len(horizons) == 0) {
		writeJSON(w, http.StatusBadRequest, errBody("need exactly one of tqs or horizons"))
		return
	}
	if len(tqs)+len(horizons) > maxPredictBatch {
		writeJSON(w, http.StatusBadRequest, errBody("batch too large"))
		return
	}
	if k <= 0 {
		k = 1
	}
	var batches [][]hpm.Prediction
	if len(horizons) > 0 {
		// Resolved against the current time under the lock hold that
		// answers them; the reported tqs are the ones answered for.
		tqs, batches, err = st.PredictBatchAheadContext(r.Context(), id, horizons, k)
	} else {
		batches, err = st.PredictBatchContext(r.Context(), id, tqs, k)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	a := newAnswer()
	a.raw(`{"results":[`)
	for i, preds := range batches {
		if i > 0 {
			a.raw(",")
		}
		a.raw(`{"tq":`)
		a.int(tqs[i])
		a.raw(`,"predictions":`)
		a.predictions(preds)
		a.raw("}")
	}
	a.raw("]}")
	a.send(w)
}

func handleTrajectory(st *store.Store, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	q := r.URL.Query()
	from, err := intParam(q.Get("from"), "from", -1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	to, err := intParam(q.Get("to"), "to", -1)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody(err.Error()))
		return
	}
	if from < 0 || to < from {
		writeJSON(w, http.StatusBadRequest, errBody("need from <= to"))
		return
	}
	preds, err := st.PredictRangeContext(r.Context(), id, from, to)
	if err != nil {
		writeError(w, err)
		return
	}
	a := newAnswer()
	a.raw(`{"from":`)
	a.int(from)
	a.raw(`,"predictions":`)
	a.predictions(preds)
	a.raw(`,"to":`)
	a.int(to)
	a.raw("}")
	a.send(w)
}

// intParam parses a numeric query parameter: absent means the default,
// malformed is an error the handler turns into a 400 (silently treating
// ?tq=abc like a missing tq hid client bugs).
func intParam(s, name string, def int) (int, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("malformed %s=%q: want an integer", name, s)
	}
	return v, nil
}

func errBody(msg string) map[string]string { return map[string]string{"error": msg} }

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, store.ErrUnknownObject):
		status = http.StatusNotFound
	case errors.Is(err, store.ErrUntrained):
		status = http.StatusConflict
	case errors.Is(err, store.ErrInvalidPoint), errors.Is(err, store.ErrTooFar), errors.Is(err, store.ErrRangeTooLarge):
		status = http.StatusBadRequest
	case errors.Is(err, store.ErrNoFleetIndex):
		status = http.StatusNotImplemented
	case errors.Is(err, store.ErrDegraded):
		// Read-only mode: the write was refused, nothing was recorded.
		// Retry-After because the store auto-recovers once the disk heals.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The request's deadline expired (or the client left) before the
		// store finished; for observes this is pre-acknowledgment only, so
		// retrying is safe.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	default:
		// Invalid query times and similar caller mistakes read as 400s.
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errBody(err.Error()))
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// The status line is already out; an encode error here means the
	// client went away, which needs no handling.
	_ = json.NewEncoder(w).Encode(body)
}
