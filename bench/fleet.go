package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"hpm"
	"hpm/internal/datagen"
)

// The fleet recipe. Every workload starts from the same fleet so setup_s
// is comparable across them; only the operation lists differ.
const (
	period       = 60 // -period handed to hpmserve
	trainPeriods = 10 // periods every trained object has at setup
	minTrain     = 4  // -min-train
	indexCell    = 200
	predictK     = 3
	coldPoints   = 8   // an untrained object is an 8-point random walk
	probeReach   = 100 // every probe keeps a true future this many steps ahead
)

// predictHorizons straddle the distant-time threshold d=60, so both FQP
// and BQP answer. The minimum of 2, with one point per object per write,
// keeps the now→predict race of GET ?horizon= unreachable: two writes to
// one object would have to land between the handler's two store calls.
var predictHorizons = []int{2, 5, 20, 60, 100}

// batchHorizons is the body of every batch predict.
var batchHorizons = []int{2, 5, 10, 20, 40, 60, 80, 100}

// probeHorizons are scored against the generator's true future for
// mean_error.
var probeHorizons = []int{5, 20, 60}

// scale holds every size a run depends on. --seconds scales the measured
// block counts only, and the trace run divides them by five.
type scale struct {
	Trained int `json:"trained"`
	Cold    int `json:"cold"`
	Conns   int `json:"conns"`

	PredictBlocks   int `json:"predict_blocks"`    // measured blocks of point_predict
	PredictPerBlock int `json:"predict_per_block"` // requests per block, both connections together

	WarmTicks      int `json:"warm_ticks"`      // one full period: every object has extended once
	IngestTicks    int `json:"ingest_ticks"`    // measured ticks of ingest_tick; a block is one tick
	MixedTicks     int `json:"mixed_ticks"`     // measured ticks of fleet_mixed; a block is one tick
	CleanOpens     int `json:"clean_opens"`     // timed opens from the snapshot alone
	Recoveries     int `json:"recoveries"`      // timed recoveries over snapshot + WAL tail
	RestartTicks   int `json:"restart_ticks"`   // ingest ticks that make the WAL tail
	VerifyRequests int `json:"verify_requests"` // sampled requests compared with the reference
	VerifyObjects  int `json:"verify_objects"`  // trained objects the reference store holds
	maxTicks       int // the longest tick sequence any workload applies
}

// object is one tracked object: its id and its whole generated movement.
// The server is fed a prefix; the rest is the ground truth the probes are
// scored against.
type object struct {
	id    string
	track []hpm.Point
	cut   int // points ingested at setup
}

type fleet struct {
	trained []object
	cold    []object
}

// fleetSeed fixes the fleet. The fleet is the benchmark's dataset, as the
// paper's four traces are its: every run and every --seed measures the
// same objects, so mean_error is exact and no timing carries the luck of
// a draw of routes. --seed draws everything else: which objects are
// asked, when, at which horizon, over which rectangle, the order within
// a tick, and the sample that is verified.
const fleetSeed = 1

// newFleet generates the fleet. Trained objects cycle through datagen's
// four kinds. The setup cut is phase-staggered, 10*60 + (7*i mod 60), so
// every later tick carries the same number of objects across a period
// boundary (and into an Extend) instead of all of them at once.
func newFleet(sc scale) *fleet {
	const seed = fleetSeed
	f := &fleet{}
	// The track covers the latest cut, every tick any workload applies,
	// and the probes' future.
	need := trainPeriods*period + period + sc.maxTicks + probeReach + 1
	subs := (need + period - 1) / period
	for i := 0; i < sc.Trained; i++ {
		tr := datagen.Generate(datagen.Spec{
			Kind:            datagen.Kinds[i%len(datagen.Kinds)],
			Period:          period,
			SubTrajectories: subs,
			Seed:            seed*1_000_003 + int64(i),
		})
		f.trained = append(f.trained, object{
			id:    fmt.Sprintf("t%04d", i),
			track: tr.Points(),
			cut:   trainPeriods*period + (7*i)%period,
		})
	}
	r := rand.New(rand.NewSource(seed ^ 0x5eed_c01d))
	for i := 0; i < sc.Cold; i++ {
		p := hpm.Pt(r.Float64()*datagen.Extent.Max.X, r.Float64()*datagen.Extent.Max.Y)
		walk := make([]hpm.Point, coldPoints)
		for j := range walk {
			walk[j] = p
			p = datagen.Extent.Clamp(hpm.Pt(p.X+r.NormFloat64()*20, p.Y+r.NormFloat64()*20))
		}
		f.cold = append(f.cold, object{id: fmt.Sprintf("c%05d", i), track: walk, cut: coldPoints})
	}
	return f
}

// opKind names a request shape; the latency classes and the trace's
// per-endpoint layers are keyed by it.
type opKind uint8

const (
	opPredict opKind = iota
	opPredictBatch
	opObserveOne
	opObserveBulk
	opRange
	opKNN
	numOpKinds
)

var opKindNames = [numOpKinds]string{"predict", "predict_batch", "observe_one", "observe_bulk", "range", "knn"}

// observation is one object's points inside an observe request.
type observation struct {
	obj    int // index into fleet.trained, -1 for a cold object
	id     string
	points []hpm.Point
}

// op is one request, kept in structured form so the trace can replay it
// below HTTP; req holds the wire bytes, built before any clock starts.
type op struct {
	kind     opKind
	obj      int   // predict target: index into fleet.trained
	horizons []int // one for predict, many for predict_batch, one for range/knn
	obs      []observation
	rect     hpm.Rect
	at       hpm.Point
	k        int
	req      []byte
}

// points is how many observations the request carries.
func (o *op) points() int {
	n := 0
	for _, ob := range o.obs {
		n += len(ob.points)
	}
	return n
}

func appendFloat(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'g', -1, 64) }

func appendPoints(b []byte, pts []hpm.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = appendFloat(b, p.X)
		b = append(b, ',')
		b = appendFloat(b, p.Y)
		b = append(b, ']')
	}
	return append(b, ']')
}

func appendInts(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// httpRequest frames a request for a keep-alive HTTP/1.1 connection.
func httpRequest(method, target string, body []byte) []byte {
	b := make([]byte, 0, len(target)+len(body)+96)
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if method == "POST" {
		b = append(b, "Content-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	return append(b, body...)
}

// target and body render the op as the URL and JSON the server's handlers
// parse. Floats are written in their shortest round-trip form, so the
// server and the in-process reference see bit-identical coordinates.
func (o *op) target(f *fleet) (method, target string, body []byte) {
	switch o.kind {
	case opPredict:
		return "GET", fmt.Sprintf("/objects/%s/predict?horizon=%d&k=%d", f.trained[o.obj].id, o.horizons[0], o.k), nil
	case opPredictBatch:
		body = append(body, `{"horizons":`...)
		body = appendInts(body, o.horizons)
		body = append(body, `,"k":`...)
		body = strconv.AppendInt(body, int64(o.k), 10)
		body = append(body, '}')
		return "POST", "/objects/" + f.trained[o.obj].id + "/predict", body
	case opObserveOne:
		body = append(body, `{"points":`...)
		body = appendPoints(body, o.obs[0].points)
		body = append(body, '}')
		return "POST", "/objects/" + o.obs[0].id + "/observe", body
	case opObserveBulk:
		body = append(body, '[')
		for i, ob := range o.obs {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, `{"id":"`...)
			body = append(body, ob.id...)
			body = append(body, `","points":`...)
			body = appendPoints(body, ob.points)
			body = append(body, '}')
		}
		body = append(body, ']')
		return "POST", "/observe", body
	case opRange:
		var q []byte
		q = append(q, "/query/range?minx="...)
		q = appendFloat(q, o.rect.Min.X)
		q = append(q, "&miny="...)
		q = appendFloat(q, o.rect.Min.Y)
		q = append(q, "&maxx="...)
		q = appendFloat(q, o.rect.Max.X)
		q = append(q, "&maxy="...)
		q = appendFloat(q, o.rect.Max.Y)
		q = append(q, "&horizon="...)
		q = strconv.AppendInt(q, int64(o.horizons[0]), 10)
		return "GET", string(q), nil
	case opKNN:
		var q []byte
		q = append(q, "/query/knn?x="...)
		q = appendFloat(q, o.at.X)
		q = append(q, "&y="...)
		q = appendFloat(q, o.at.Y)
		q = append(q, "&k="...)
		q = strconv.AppendInt(q, int64(o.k), 10)
		q = append(q, "&horizon="...)
		q = strconv.AppendInt(q, int64(o.horizons[0]), 10)
		return "GET", string(q), nil
	}
	panic("bench: unknown op kind")
}

func (o *op) encode(f *fleet) {
	o.req = httpRequest(o.target(f))
}

// opList is the work of one run: lists[conn][block] is what one connection
// sends, in order, during one block. Block 0 is the warm-up.
type opList [][][]op

func (l opList) encode(f *fleet) {
	for _, conn := range l {
		for _, block := range conn {
			for i := range block {
				block[i].encode(f)
			}
		}
	}
}

func predictOp(r *rand.Rand, f *fleet, batch bool) op {
	o := op{kind: opPredict, obj: r.Intn(len(f.trained)), k: predictK}
	if batch {
		o.kind, o.horizons = opPredictBatch, batchHorizons
		return o
	}
	o.horizons = []int{predictHorizons[r.Intn(len(predictHorizons))]}
	return o
}

// pointPredictOps is the read-only workload: uniform over trained objects,
// every 8th request a batch predict.
func pointPredictOps(f *fleet, seed int64, sc scale) opList {
	l := make(opList, sc.Conns)
	for c := range l {
		r := rand.New(rand.NewSource(seed*31 + int64(c) + 101))
		for b := 0; b <= sc.PredictBlocks; b++ {
			n := sc.PredictPerBlock / sc.Conns
			block := make([]op, n)
			for i := range block {
				block[i] = predictOp(r, f, i%8 == 7)
			}
			l[c] = append(l[c], block)
		}
	}
	return l
}

// owned lists the trained objects a connection writes. Ownership is by
// index modulo the connection count, so a given object's points always
// travel on one connection and arrive in generation order.
func owned(f *fleet, conn, conns int) []int {
	var idx []int
	for i := range f.trained {
		if i%conns == conn {
			idx = append(idx, i)
		}
	}
	return idx
}

// tickObservations is the points one connection owes at tick t, one per
// owned object, in an order shuffled per tick.
func tickObservations(r *rand.Rand, f *fleet, own []int, t int) []observation {
	obs := make([]observation, len(own))
	for i, j := range r.Perm(len(own)) {
		o := &f.trained[own[j]]
		obs[i] = observation{obj: own[j], id: o.id, points: o.track[o.cut+t : o.cut+t+1]}
	}
	return obs
}

// bulkSize is the objects per bulk observe request.
const bulkSize = 100

// ingestTick renders one connection's tick of the write-only workload:
// two thirds of its objects in bulk requests, the rest one request each.
func ingestTick(r *rand.Rand, f *fleet, own []int, t int) []op {
	obs := tickObservations(r, f, own, t)
	inBulk := len(obs) * 2 / 3
	var ops []op
	for lo := 0; lo < inBulk; lo += bulkSize {
		ops = append(ops, op{kind: opObserveBulk, obs: obs[lo:min(lo+bulkSize, inBulk)]})
	}
	for i := inBulk; i < len(obs); i++ {
		ops = append(ops, op{kind: opObserveOne, obs: obs[i : i+1]})
	}
	return ops
}

// mixedRounds is how many times a connection interleaves writes and reads
// within one tick of fleet_mixed.
const mixedRounds = 3

// mixedTick renders one connection's tick of fleet_mixed: its objects in
// three bulk observes, each followed by point predicts, batch predicts,
// range and kNN queries over the whole fleet.
func mixedTick(r *rand.Rand, f *fleet, own []int, t int) []op {
	obs := tickObservations(r, f, own, t)
	var ops []op
	for round := 0; round < mixedRounds; round++ {
		lo, hi := round*len(obs)/mixedRounds, (round+1)*len(obs)/mixedRounds
		ops = append(ops, op{kind: opObserveBulk, obs: obs[lo:hi]})
		for i := 0; i < 12; i++ {
			ops = append(ops, predictOp(r, f, false))
		}
		for i := 0; i < 4; i++ {
			ops = append(ops, predictOp(r, f, true))
		}
		for i := 0; i < 4; i++ {
			ops = append(ops, rangeOp(r))
		}
		for i := 0; i < 4; i++ {
			ops = append(ops, op{
				kind:     opKNN,
				at:       hpm.Pt(r.Float64()*datagen.Extent.Max.X, r.Float64()*datagen.Extent.Max.Y),
				k:        10,
				horizons: []int{predictHorizons[r.Intn(len(predictHorizons))]},
			})
		}
	}
	return ops
}

// rangeOp is a predictive range query over a 10 % × 10 % rectangle.
func rangeOp(r *rand.Rand) op {
	w, h := datagen.Extent.Max.X/10, datagen.Extent.Max.Y/10
	x, y := r.Float64()*(datagen.Extent.Max.X-w), r.Float64()*(datagen.Extent.Max.Y-h)
	return op{
		kind:     opRange,
		rect:     hpm.Rect{Min: hpm.Pt(x, y), Max: hpm.Pt(x+w, y+h)},
		horizons: []int{predictHorizons[r.Intn(len(predictHorizons))]},
	}
}

// tickOps builds a tick-driven workload: block 0 is the warm ticks, then
// one block per measured tick, each connection's ticks rendered by tick.
func tickOps(f *fleet, seed int64, sc scale, warm, ticks int, tick func(*rand.Rand, *fleet, []int, int) []op) opList {
	l := make(opList, sc.Conns)
	for c := range l {
		r := rand.New(rand.NewSource(seed*31 + int64(c) + 211))
		own := owned(f, c, sc.Conns)
		var block []op
		for t := 0; t < warm; t++ {
			block = append(block, tick(r, f, own, t)...)
		}
		l[c] = append(l[c], block)
		for t := warm; t < warm+ticks; t++ {
			l[c] = append(l[c], tick(r, f, own, t))
		}
	}
	return l
}

func ingestOps(f *fleet, seed int64, sc scale) opList {
	return tickOps(f, seed, sc, sc.WarmTicks, sc.IngestTicks, ingestTick)
}

func mixedOps(f *fleet, seed int64, sc scale) opList {
	return tickOps(f, seed, sc, sc.WarmTicks, sc.MixedTicks, mixedTick)
}

// restartOps is the ingest that makes the WAL tail every recovery replays:
// one block of RestartTicks ticks of bulk observes.
func restartOps(f *fleet, seed int64, sc scale) opList {
	return tickOps(f, seed, sc, sc.RestartTicks, 0, func(r *rand.Rand, f *fleet, own []int, t int) []op {
		obs := tickObservations(r, f, own, t)
		var ops []op
		for lo := 0; lo < len(obs); lo += bulkSize {
			ops = append(ops, op{kind: opObserveBulk, obs: obs[lo:min(lo+bulkSize, len(obs))]})
		}
		return ops
	})
}

// generators maps each workload to the generator of its op list.
var generators = map[string]func(*fleet, int64, scale) opList{
	"point_predict": pointPredictOps,
	"ingest_tick":   ingestOps,
	"fleet_mixed":   mixedOps,
	"restart":       restartOps,
}

// block is what every connection sends during block b.
func (l opList) block(b int) [][]op {
	out := make([][]op, len(l))
	for c := range l {
		out[c] = l[c][b]
	}
	return out
}

// ticksApplied is how many points per trained object the list carries.
func (l opList) ticksApplied(f *fleet) int {
	n := 0
	for _, conn := range l {
		for _, block := range conn {
			for i := range block {
				n += block[i].points()
			}
		}
	}
	return n / len(f.trained)
}

// probe is one accuracy question: where object obj will be horizon steps
// after its latest point, and where the generator actually put it.
type probe struct {
	op    op
	truth hpm.Point
}

// probes is the fixed accuracy probe issued after the measured phase:
// every trained object at each probe horizon, against a true future point
// that is part of the generated track.
func probes(f *fleet, ticks int) []probe {
	var ps []probe
	for i := range f.trained {
		o := &f.trained[i]
		now := o.cut + ticks - 1
		for _, h := range probeHorizons {
			p := probe{op: op{kind: opPredict, obj: i, horizons: []int{h}, k: 1}, truth: o.track[now+h]}
			p.op.encode(f)
			ps = append(ps, p)
		}
	}
	return ps
}

// setupOps loads the fleet: every object's whole prefix travels in one
// bulk element, so the first train sees all ten periods at once and the
// model is a function of the points alone, not of request timing.
func setupOps(f *fleet, conns int) [][]op {
	const trainedPerReq, coldPerReq = 25, 1000
	var all []op
	add := func(objs []object, per int, trained bool) {
		for lo := 0; lo < len(objs); lo += per {
			o := op{kind: opObserveBulk}
			for i := lo; i < min(lo+per, len(objs)); i++ {
				idx := -1
				if trained {
					idx = i
				}
				o.obs = append(o.obs, observation{obj: idx, id: objs[i].id, points: objs[i].track[:objs[i].cut]})
			}
			o.encode(f)
			all = append(all, o)
		}
	}
	add(f.trained, trainedPerReq, true)
	add(f.cold, coldPerReq, false)
	out := make([][]op, conns)
	for i, o := range all {
		out[i%conns] = append(out[i%conns], o)
	}
	return out
}
