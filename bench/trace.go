package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/hpa"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/spatial"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
	"hpm/serve"
	"hpm/store"
)

// The per-layer run. It is a separate, in-process run at a fifth of the op
// counts. Each request of the same lists is sent at one depth, and each
// request kind cycles through the depths in turn: loopback HTTP untraced,
// loopback HTTP traced, the serve handler alone (httptest), the store's
// public calls, and a descent that repeats the store call and then goes
// on through Predictor, Engine and the motion fit. One depth per request
// rather than a replay at every depth, because observes change state and
// cannot be sent twice; cycling keeps every depth's sample spread evenly
// over the run. A layer's self time is the mean of its depth minus the
// mean of the next depth down. Only public calls are timed: the spans
// come from this file, not from inside the program.

// traceDivisor is how much smaller the traced run is than the measured one.
const traceDivisor = 5

// layerSample is how many objects the standalone layer timings run over.
const layerSample = 20

// probeEvery is how many traced requests pass between two host probes.
const probeEvery = 200

// The depths a part of the list is sent at.
const (
	depthUntraced = iota
	depthLoopback
	depthServe
	depthStore
	depthDescend
	numDepths
)

// span is one timed call: what ran, for which request, when, and the span
// of the shallower layer that causes it in a real request.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
}

type spanSum struct {
	n     int
	total time.Duration
}

// tracer keeps the spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
	sums  map[string]*spanSum
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sums: map[string]*spanSum{}}
}

// time runs fn as a span. Untraced calls pass record=false: they are
// summed for the overhead ratio but leave no span behind.
func (t *tracer) time(name, parent string, req int, record bool, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	d := end.Sub(start)
	s := t.sums[name]
	if s == nil {
		s = &spanSum{}
		t.sums[name] = s
	}
	s.n++
	s.total += d
	if record {
		t.spans = append(t.spans, span{Name: name, Req: req, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
	}
	return d
}

// mean is a span name's mean duration in µs, 0 when it never ran.
func (t *tracer) mean(name string) float64 {
	s := t.sums[name]
	if s == nil || s.n == 0 {
		return 0
	}
	return us(s.total) / float64(s.n)
}

func (t *tracer) count(name string) int {
	if s := t.sums[name]; s != nil {
		return s.n
	}
	return 0
}

// self is a layer's own time: its depth's mean minus the next depth's,
// floored at zero because the two means come from different parts.
func (t *tracer) self(outer, inner string) float64 {
	return max(0, t.mean(outer)-t.mean(inner))
}

// write stores the spans as JSON lines under bench/out/.
func (t *tracer) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "spans-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceEnv is the in-process system under trace: a durable store with the
// server's options, its HTTP handler behind a loopback listener, an
// in-memory twin of a sample of the fleet (the WAL-free baseline), and a
// standalone spatial index of the same density for direct index calls.
type traceEnv struct {
	f       *fleet
	t       *tracer
	st      *store.Store
	dir     string
	handler http.Handler
	srv     *http.Server
	conn    *conn
	twin    *reference
	ix      *spatial.Index
	applied []int // ticks applied so far, per trained object
	host    hostSpeed

	observeTotal  time.Duration // store-level observe time, both forms
	observePoints int

	respBytes  int64
	respCount  int
	paths      map[string]int
	rangeHits  int
	rangeCount int
	failed     int
	attempted  int
	firstErr   error
	clientLat  [numOpKinds][]time.Duration
}

// handlerLimits are the admission limits of both the child (startServer
// passes them as flags) and the in-process handler of the trace.
var handlerLimits = serve.Limits{MaxInflight: 256, RequestTimeout: 30 * time.Second, ShedPolicy: "priority"}

func newTraceEnv(f *fleet, seed int64, sc scale, dir string) (*traceEnv, error) {
	opts := serverOptions()
	st, err := store.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	e := &traceEnv{f: f, t: newTracer(), st: st, dir: dir, paths: map[string]int{}, applied: make([]int, len(f.trained))}
	e.handler = serve.NewHandler(st, handlerLimits)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	e.srv = &http.Server{Handler: e.handler}
	go e.srv.Serve(ln) // returns when close() shuts the server down
	if e.conn, err = dial(ln.Addr().String()); err != nil {
		e.close()
		return nil, err
	}
	// Load the fleet exactly as the measured run does, through the store.
	for _, ops := range setupOps(f, 1) {
		for i := range ops {
			if err := st.ObserveAll(storeBatch(&ops[i])); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	if err := st.Flush(); err != nil {
		e.close()
		return nil, err
	}
	twinScale := sc
	twinScale.VerifyObjects = sc.Trained / traceDivisor
	if e.twin, err = newReference(f, seed, twinScale); err != nil {
		e.close()
		return nil, err
	}
	e.ix = spatial.New(spatial.Config{CellSize: indexCell})
	for i := range f.trained {
		e.ix.Update(f.trained[i].id, e.indexEntries(&f.trained[i], f.trained[i].cut))
	}
	for i := range f.cold {
		e.ix.Update(f.cold[i].id, e.indexEntries(&f.cold[i], coldPoints))
	}
	return e, nil
}

func (e *traceEnv) close() {
	if e.conn != nil {
		e.conn.close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.twin != nil {
		e.twin.st.Close()
	}
	if e.st != nil {
		e.st.Close()
	}
}

// indexEntries stands in for an object's cached predictions in the
// standalone index: its true position h steps after point n, or its last
// point when the track ends first. Same objects, same extent, same
// density as the store's own index.
func (e *traceEnv) indexEntries(o *object, n int) []spatial.Entry {
	entries := make([]spatial.Entry, len(spatial.DefaultHorizons))
	for i, h := range spatial.DefaultHorizons {
		at := min(n-1+h, len(o.track)-1)
		entries[i] = spatial.Entry{Horizon: h, Pos: o.track[at], Path: "forward"}
	}
	return entries
}

func storeBatch(o *op) []store.Observation {
	batch := make([]store.Observation, len(o.obs))
	for i, ob := range o.obs {
		batch[i] = store.Observation{ID: ob.id, Points: ob.points}
	}
	return batch
}

func (e *traceEnv) fail(err error) {
	e.failed++
	if e.firstErr == nil {
		e.firstErr = err
	}
}

// exec sends one op at the given depth.
func (e *traceEnv) exec(o *op, depth, req int) {
	e.attempted++
	kind := opKindNames[o.kind]
	switch depth {
	case depthUntraced, depthLoopback:
		name := "client." + kind
		if depth == depthUntraced {
			name = "untraced." + kind
		}
		var status int
		var err error
		d := e.t.time(name, "", req, depth == depthLoopback, func() {
			status, _, err = e.conn.do(o.req)
		})
		e.clientLat[o.kind] = append(e.clientLat[o.kind], d)
		if err != nil || status != 200 {
			e.fail(fmt.Errorf("trace loopback %s: status %d err %v", kind, status, err))
		}
	case depthServe:
		method, target, body := o.target(e.f)
		r := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		e.t.time("serve."+kind, "client."+kind, req, true, func() {
			e.handler.ServeHTTP(rec, r)
		})
		e.respBytes += int64(rec.Body.Len())
		e.respCount++
		if rec.Code != 200 {
			e.fail(fmt.Errorf("trace handler %s: status %d body %.200s", kind, rec.Code, rec.Body.Bytes()))
		}
	case depthStore, depthDescend:
		if err := e.execStore(o, req, depth == depthDescend); err != nil {
			e.fail(fmt.Errorf("trace store %s: %w", kind, err))
		}
	}
	e.feedTwin(o, req, true)
}

// feedTwin sends the op's points for the sampled objects into the
// in-memory twin: the WAL-free baseline store.wal.append_us is measured
// against.
func (e *traceEnv) feedTwin(o *op, req int, timed bool) {
	for _, ob := range o.obs {
		if !e.twin.ids[ob.id] {
			continue
		}
		var err error
		feed := func() { err = e.twin.st.ObserveBatch(ob.id, ob.points) }
		if timed {
			e.t.time("mem.observe", "", req, false, feed)
		} else {
			feed()
		}
		if err != nil {
			e.fail(err)
		}
	}
}

// execStore sends the op through the store's public calls, as the serve
// handlers do. A descent is timed under its own name, so the layers below
// are subtracted from the very calls they were part of, and the plain
// store depth stays free of the descent's cache traffic.
func (e *traceEnv) execStore(o *op, req int, descend bool) error {
	ctx := context.Background()
	kind := opKindNames[o.kind]
	name, parent := "store."+kind, "serve."+kind
	if descend && len(o.obs) == 0 {
		name = "descend." + kind // nothing public lies below an observe
	}
	var err error
	switch o.kind {
	case opPredict:
		obj := &e.f.trained[o.obj]
		var preds []hpm.Prediction
		e.t.time(name, parent, req, true, func() {
			var now int
			if now, err = e.st.Now(obj.id); err == nil {
				preds, err = e.st.PredictContext(ctx, obj.id, now+o.horizons[0], o.k)
			}
		})
		if err == nil && len(preds) > 0 {
			e.paths[preds[0].Path.String()]++
			if descend {
				err = e.descend(o.obj, o.horizons[0], o.k, req)
			}
		}
	case opPredictBatch:
		obj := &e.f.trained[o.obj]
		e.t.time(name, parent, req, true, func() {
			var now int
			if now, err = e.st.Now(obj.id); err == nil {
				tqs := make([]int, len(o.horizons))
				for i, h := range o.horizons {
					tqs[i] = now + h
				}
				_, err = e.st.PredictBatchContext(ctx, obj.id, tqs, o.k)
			}
		})
	case opObserveOne:
		e.observeTotal += e.t.time(name, parent, req, true, func() {
			err = e.st.ObserveBatchContext(ctx, o.obs[0].id, o.obs[0].points)
		})
		e.observePoints += o.points()
	case opObserveBulk:
		batch := storeBatch(o)
		e.observeTotal += e.t.time(name, parent, req, true, func() {
			err = e.st.ObserveAllContext(ctx, batch)
		})
		e.observePoints += o.points()
	case opRange:
		var res []spatial.Result
		e.t.time(name, parent, req, true, func() {
			res, err = e.st.QueryRangeContext(ctx, o.rect, o.horizons[0])
		})
		e.rangeHits += len(res)
		e.rangeCount++
		if descend {
			e.t.time("spatial.range", name, req, true, func() { e.ix.Range(o.rect, o.horizons[0]) })
		}
	case opKNN:
		e.t.time(name, parent, req, true, func() {
			_, err = e.st.QueryNearestContext(ctx, o.at, o.k, o.horizons[0])
		})
		if descend {
			e.t.time("spatial.knn", name, req, true, func() { e.ix.Nearest(o.at, o.k, o.horizons[0]) })
		}
	}
	return err
}

// descend repeats a point predict below the store: the Predictor, then
// the Engine's query processors one by one, then the motion fit.
func (e *traceEnv) descend(idx, horizon, k, req int) error {
	obj := &e.f.trained[idx]
	p, err := e.st.Predictor(obj.id)
	if err != nil || p == nil {
		return fmt.Errorf("predictor of %s: %v", obj.id, err)
	}
	n := obj.cut + e.applied[idx]
	recent := make([]hpm.TimedPoint, 0, store.DefaultMaxRecent)
	for t := n - store.DefaultMaxRecent; t < n; t++ {
		recent = append(recent, hpm.TimedPoint{T: t, Loc: obj.track[t]})
	}
	tc, tq := n-1, n-1+horizon
	e.t.time("hpa.predict", "descend.predict", req, true, func() {
		_, err = p.Predict(recent, tq, k)
	})
	if err != nil {
		return err
	}
	eng := p.Model().Engine()
	visited := eng.EncodeRecent(recent)
	var preds []hpa.Prediction
	if eng.IsDistant(tc, tq) {
		e.t.time("hpa.backward", "hpa.predict", req, true, func() { preds = eng.BackwardQuery(visited, tc, tq, k) })
	} else {
		e.t.time("hpa.forward", "hpa.predict", req, true, func() { preds = eng.ForwardQuery(visited, tq, k) })
	}
	if len(preds) > 0 {
		return nil
	}
	q := hpa.Query{Recent: recent, Tq: tq, K: k}
	e.t.time("hpa.markov", "hpa.predict", req, true, func() { preds, err = eng.MarkovQuery(q) })
	if err != nil || (len(preds) > 0 && preds[0].Path == hpa.PathMarkov) {
		return err
	}
	e.t.time("hpa.fallback", "hpa.predict", req, true, func() { _, err = eng.FallbackQuery(q) })
	cfg := p.Model().Params().RMF
	if cfg.Bounds == nil {
		b := p.Model().Bounds()
		cfg.Bounds = &b
	}
	e.t.time("motion.fit", "hpa.fallback", req, true, func() {
		_ = motion.NewRMF(cfg).Fit(recent) // a degenerate window is answered with the last point, not an error
	})
	return err
}

// noteObserved advances the per-object clocks the descents read.
func (e *traceEnv) noteObserved(o *op) {
	for _, ob := range o.obs {
		if ob.obj >= 0 {
			e.applied[ob.obj] += len(ob.points)
		}
	}
}

// warm sends block 0 straight into the store, untimed.
func (e *traceEnv) warm(list opList) {
	for c := range list {
		for i := range list[c][0] {
			o := &list[c][0][i]
			if len(o.obs) == 0 {
				continue // reads warm nothing the trace depends on
			}
			if err := e.st.ObserveAll(storeBatch(o)); err != nil {
				e.fail(err)
			}
			e.feedTwin(o, 0, false)
			e.noteObserved(o)
		}
	}
}

// run sends the measured blocks; the n-th request of a kind goes out at
// depth n mod numDepths. The two loopback depths swap places every other
// cycle, so that neither always runs right after the descent has emptied
// the caches: their ratio is the tracing overhead.
func (e *traceEnv) run(list opList) {
	var flat []*op
	for b := 1; b < len(list[0]); b++ {
		for c := range list {
			for i := range list[c][b] {
				flat = append(flat, &list[c][b][i])
			}
		}
	}
	var sent [numOpKinds]int
	for i, o := range flat {
		if i%probeEvery == 0 {
			if err := e.host.take(1); err != nil {
				e.fail(err)
			}
		}
		depth := sent[o.kind] % numDepths
		if depth <= depthLoopback && sent[o.kind]/numDepths%2 == 1 {
			depth = depthLoopback - depth
		}
		e.exec(o, depth, i)
		sent[o.kind]++
		e.noteObserved(o)
	}
}

// layerBenches times the layers no request reaches through a public call
// of its own: the Markov fold, the spatial index update, and the
// evaluator's scoring, each on standalone instances fed fleet data.
func (e *traceEnv) layerBenches() error {
	cfg := serverOptions().Config
	for i := 0; i < min(layerSample, len(e.f.trained)); i++ {
		o := &e.f.trained[i]
		completed := o.cut / period * period
		p, err := hpm.TrainPoints(o.track[:completed], cfg)
		if err != nil {
			return err
		}
		tr := evalq.New(evalq.Config{})
		for t := completed; t < completed+period; t++ {
			pt := o.track[t]
			e.t.time("markov.fold", "store.observe_bulk", i, true, func() { p.MarkovObserve(t, pt) })
			for _, h := range predictHorizons {
				tr.Record(t-1, t-1+h, evalq.PathForward, o.track[t-1+h])
			}
			e.t.time("evalq.score", "store.observe_bulk", i, true, func() { tr.Observe(t, o.track[t:t+1]) })
		}
	}
	for t := 1; t <= 10; t++ {
		for i := range e.f.trained {
			o := &e.f.trained[i]
			entries := e.indexEntries(o, o.cut+t)
			e.t.time("spatial.update", "store.observe_bulk", i, true, func() { e.ix.Update(o.id, entries) })
		}
	}
	return nil
}

// trainStages times the stages of one object's first train — region
// discovery (DBSCAN per offset), pattern mining, TPT bulk load — on a
// sample of the fleet, with the parameters the store trains with.
func (e *traceEnv) trainStages() error {
	for i := 0; i < min(layerSample, len(e.f.trained)); i++ {
		o := &e.f.trained[i]
		p, err := e.st.Predictor(o.id)
		if err != nil || p == nil {
			return fmt.Errorf("predictor of %s: %v", o.id, err)
		}
		params := p.Model().Params()
		subs, err := trajectory.New(o.track[:o.cut/period*period]).Decompose(period)
		if err != nil {
			return err
		}
		groups := trajectory.Groups(subs, 0)
		var rt *pattern.RegionTable
		e.t.time("cluster.dbscan", "core.train", i, true, func() {
			rt = pattern.DiscoverRegions(groups, params.Eps, params.MinPts)
		})
		var pats []pattern.Pattern
		e.t.time("pattern.mine", "core.train", i, true, func() { pats = pattern.Mine(rt, params.Mining) })
		ct := pattern.NewConsequenceTable(rt, pats)
		enc := pattern.NewEncoder(rt, ct)
		items := make([]tpt.Item, len(pats))
		for j, pt := range pats {
			items[j] = tpt.Item{Key: enc.Encode(pt), Conf: pt.Confidence, Ref: j}
		}
		e.t.time("tpt.bulkload", "core.train", i, true, func() { tpt.BulkLoad(ct.Len(), rt.Len(), items, params.Tree) })
	}
	return nil
}

// observeMean is the store-level mean µs per observed point, over both
// observe forms.
func (e *traceEnv) observeMean() float64 {
	return ratio(us(e.observeTotal), float64(e.observePoints))
}
