// Package serve exposes a store.Store as a JSON-over-HTTP API, the shape a
// tracking backend would embed:
//
//	POST /objects/{id}/observe       {"points": [[x, y], ...]}
//	POST /observe                    [{"id": "...", "points": [[x, y], ...]}, ...]
//	POST /flush                      drain background trains
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
	"slices"
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
	// Flush drains background (re)trains: afterwards every prior observe
	// is reflected in the models. Training failures surface here. Classed
	// as control work: it parks on the training pool, the most expensive
	// thing a request can do, so it gets the smallest concurrency slice.
	mux.HandleFunc("POST /flush", s.guard("flush", classControl, func(w http.ResponseWriter, r *http.Request) {
		if err := st.Flush(); err != nil {
			writeJSON(w, http.StatusInternalServerError, errBody(err.Error()))
			return
		}
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

// observeRequest is the observe body: points as [x, y] pairs.
type observeRequest struct {
	Points [][2]float64 `json:"points"`
}

func handleObserve(st *store.Store, w http.ResponseWriter, r *http.Request) {
	var req observeRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxObserveBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, http.StatusBadRequest, errBody("no points"))
		return
	}
	pts := make([]hpm.Point, len(req.Points))
	for i, xy := range req.Points {
		pts[i] = hpm.Pt(xy[0], xy[1])
	}
	id := r.PathValue("id")
	if err := st.ObserveBatchContext(r.Context(), id, pts); err != nil {
		writeError(w, err)
		return
	}
	now, _ := st.Now(id)
	stats, _ := st.Stats(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"now":      now,
		"trained":  stats.Trained,
		"training": stats.Training,
	})
}

// fleetObservation is one element of the bulk observe body.
type fleetObservation struct {
	ID     string       `json:"id"`
	Points [][2]float64 `json:"points"`
}

func handleObserveFleet(st *store.Store, w http.ResponseWriter, r *http.Request) {
	var req []fleetObservation
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxFleetBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if len(req) == 0 {
		writeJSON(w, http.StatusBadRequest, errBody("no observations"))
		return
	}
	batch := make([]store.Observation, len(req))
	points := 0
	for i, ob := range req {
		if ob.ID == "" {
			writeJSON(w, http.StatusBadRequest, errBody("observation without id"))
			return
		}
		if len(ob.Points) == 0 {
			writeJSON(w, http.StatusBadRequest, errBody("observation for "+ob.ID+" has no points"))
			return
		}
		pts := make([]hpm.Point, len(ob.Points))
		for j, xy := range ob.Points {
			pts[j] = hpm.Pt(xy[0], xy[1])
		}
		batch[i] = store.Observation{ID: ob.ID, Points: pts}
		points += len(pts)
	}
	if err := st.ObserveAllContext(r.Context(), batch); err != nil {
		writeError(w, err)
		return
	}
	ids := map[string]bool{}
	for _, ob := range batch {
		ids[ob.ID] = true
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"objects": len(ids),
		"points":  points,
	})
}

// predictionJSON is the wire form of one prediction.
type predictionJSON struct {
	X          float64     `json:"x"`
	Y          float64     `json:"y"`
	Source     string      `json:"source"`
	Path       string      `json:"path"`
	Score      float64     `json:"score"`
	Confidence float64     `json:"confidence"`
	Region     *regionJSON `json:"region,omitempty"`
}

type regionJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func toJSON(p hpm.Prediction) predictionJSON {
	out := predictionJSON{
		X:          p.Location.X,
		Y:          p.Location.Y,
		Source:     p.Source.String(),
		Path:       p.Path.String(),
		Score:      p.Score,
		Confidence: p.Confidence,
	}
	// Pattern and markov answers are region centers, so the region extent
	// is their natural uncertainty bound; motion answers have none.
	if p.Source == hpm.SourcePattern || p.Source == hpm.SourceMarkov {
		out.Region = &regionJSON{
			MinX: p.Extent.Min.X, MinY: p.Extent.Min.Y,
			MaxX: p.Extent.Max.X, MaxY: p.Extent.Max.Y,
		}
	}
	return out
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
		if h > maxHorizon {
			writeJSON(w, http.StatusBadRequest, errBody(errTooFar))
			return
		}
		// The store resolves the current time and answers under one lock
		// hold; the reported tq is the one it answered for.
		tq, preds, err = st.PredictAheadContext(r.Context(), id, h, k)
	case tq >= 0:
		if tooFar(st, w, id, tq) {
			return
		}
		preds, err = st.PredictContext(r.Context(), id, tq, k)
	default:
		writeJSON(w, http.StatusBadRequest, errBody("need tq or horizon"))
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]predictionJSON, len(preds))
	for i, p := range preds {
		out[i] = toJSON(p)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tq": tq, "predictions": out})
}

// maxPredictBatch bounds one batch-predict request, mirroring the
// trajectory endpoint's range cap.
const maxPredictBatch = 10000

// maxHorizon bounds how far past an object's current time any query time may
// lie. The motion path iterates its recurrence once per tick of horizon,
// holding the object's read lock, with no deadline to interrupt it: a
// horizon of 10⁸ ticks pinned a core for eight seconds with the object's
// ingest queued behind it. 2²⁰ ticks is two years of minutes and costs a
// few tens of milliseconds.
const maxHorizon = 1 << 20

var errTooFar = fmt.Sprintf("query time too far ahead: at most %d ticks past the object's current time", maxHorizon)

// tooFar refuses, with a 400, an absolute query time more than maxHorizon
// past the object's current time, and reports whether it answered. The
// current time only advances, so a time admitted here is still within the
// bound when the store answers it.
func tooFar(st *store.Store, w http.ResponseWriter, id string, tq int) bool {
	now, err := st.Now(id)
	switch {
	case err != nil:
		writeError(w, err)
	case tq > now+maxHorizon:
		writeJSON(w, http.StatusBadRequest, errBody(errTooFar))
	default:
		return false
	}
	return true
}

// predictBatchRequest is the batch body: absolute query times, or horizons
// relative to the object's current time (exactly one must be non-empty).
type predictBatchRequest struct {
	Tqs      []int `json:"tqs"`
	Horizons []int `json:"horizons"`
	K        int   `json:"k"`
}

// batchResultJSON pairs one query time with its ranked predictions.
type batchResultJSON struct {
	Tq          int              `json:"tq"`
	Predictions []predictionJSON `json:"predictions"`
}

func handlePredictBatch(st *store.Store, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req predictBatchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxObserveBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody("bad body: "+err.Error()))
		return
	}
	if (len(req.Tqs) == 0) == (len(req.Horizons) == 0) {
		writeJSON(w, http.StatusBadRequest, errBody("need exactly one of tqs or horizons"))
		return
	}
	if len(req.Tqs)+len(req.Horizons) > maxPredictBatch {
		writeJSON(w, http.StatusBadRequest, errBody("batch too large"))
		return
	}
	k := req.K
	if k <= 0 {
		k = 1
	}
	tqs := req.Tqs
	var batches [][]hpm.Prediction
	var err error
	if len(req.Horizons) > 0 {
		if slices.Max(req.Horizons) > maxHorizon {
			writeJSON(w, http.StatusBadRequest, errBody(errTooFar))
			return
		}
		// Resolved against the current time under the lock hold that
		// answers them; the reported tqs are the ones answered for.
		tqs, batches, err = st.PredictBatchAheadContext(r.Context(), id, req.Horizons, k)
	} else {
		if tooFar(st, w, id, slices.Max(tqs)) {
			return
		}
		batches, err = st.PredictBatchContext(r.Context(), id, tqs, k)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	results := make([]batchResultJSON, len(batches))
	for i, preds := range batches {
		out := make([]predictionJSON, len(preds))
		for j, p := range preds {
			out[j] = toJSON(p)
		}
		results[i] = batchResultJSON{Tq: tqs[i], Predictions: out}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
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
	if to-from > 10000 {
		writeJSON(w, http.StatusBadRequest, errBody("range too large"))
		return
	}
	if tooFar(st, w, id, to) {
		return
	}
	preds, err := st.PredictRangeContext(r.Context(), id, from, to)
	if err != nil {
		writeError(w, err)
		return
	}
	out := make([]predictionJSON, len(preds))
	for i, p := range preds {
		out[i] = toJSON(p)
	}
	writeJSON(w, http.StatusOK, map[string]any{"from": from, "to": to, "predictions": out})
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
	case errors.Is(err, store.ErrInvalidPoint):
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
