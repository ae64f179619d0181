package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"syscall"
	"time"
)

// readyTimeout bounds every wait for the child to accept work.
const readyTimeout = 90 * time.Second

// harness is one run's live state: the child, its data directory, the
// connections of the closed loop and the host probe.
type harness struct {
	bin     string
	dataDir string
	sc      scale
	f       *fleet
	srv     *server
	conns   []*conn
	host    *hostProbe
	peakRSS float64
}

var flushReq = httpRequest("POST", "/flush", nil)

// setup starts a server over an empty data directory, loads the fleet and
// drains the background trains. Its duration is setup_s: server exec to
// /flush returned.
func (h *harness) setup(load [][]op) (time.Duration, error) {
	if err := os.RemoveAll(h.dataDir); err != nil {
		return 0, err
	}
	if err := h.start(); err != nil {
		return 0, err
	}
	res := runBlock(h.conns, load)
	if res.failed > 0 {
		return 0, fmt.Errorf("fleet load: %d of %d requests failed: %v", res.failed, res.requests, res.firstErr)
	}
	if status, body, err := h.conns[0].do(flushReq); err != nil || status != 200 {
		return 0, fmt.Errorf("flush: status %d err %v body %.200s", status, err, body)
	}
	return time.Since(h.srv.started), nil
}

// start execs the child over the data directory as it stands, waits until
// it is ready, and connects.
func (h *harness) start() error {
	srv, err := startServer(h.bin, h.dataDir)
	if err != nil {
		return err
	}
	h.srv = srv
	if _, err := srv.ready(readyTimeout); err != nil {
		return err
	}
	h.conns, err = dialAll(srv.addr, h.sc.Conns)
	return err
}

// stop ends the incarnation, first noting its resident-set peak.
func (h *harness) stop(sig syscall.Signal) error {
	if u, err := h.srv.usage(); err == nil && u.hwmMB > h.peakRSS {
		h.peakRSS = u.hwmMB
	}
	closeAll(h.conns)
	h.conns = nil
	return h.srv.stop(sig)
}

// probeAround is how many probe samples bracket a long operation (set-up,
// a recovery) on each side; the server is down before and idle after.
const probeAround = 25

// runWorkload is one end-to-end run: set up, the workload's measured
// blocks, the accuracy probe, and the verification against the reference.
func runWorkload(name string, seed int64, sc scale, prov *provenance) (*result, error) {
	begin := time.Now()
	bin, err := buildServer()
	if err != nil {
		return nil, err
	}
	dataDir, err := newDataDir(prov)
	if err != nil {
		return nil, err
	}
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()

	f := newFleet(sc)
	list := generators[name](f, seed, sc)
	list.encode(f)
	load := setupOps(f, sc.Conns)

	h := &harness{bin: bin, dataDir: dataDir + "/data", sc: sc, f: f, host: host}
	res := &result{Metrics: map[string]metric{}, raw: map[string]float64{}}
	hs := hostSpeed{p: host}
	if err := hs.takeSpaced(probeAround); err != nil {
		return nil, err
	}
	d, err := h.setup(load)
	if err != nil {
		return nil, err
	}
	if err := hs.takeSpaced(probeAround); err != nil {
		return nil, err
	}
	res.setTimed("setup_s", d.Seconds(), "s", &hs, longPhaseExponent)

	if name == "restart" {
		err = h.runRestart(list, res)
	} else {
		err = h.runBlocks(name, list, res)
	}
	if err != nil {
		return nil, err
	}

	if err := h.accuracy(probes(f, list.ticksApplied(f)), res); err != nil {
		return nil, err
	}
	if err := h.verify(seed, list, res); err != nil {
		return nil, err
	}
	if err := h.stop(syscall.SIGKILL); err != nil {
		return nil, err
	}
	res.set("peak_rss_mb", h.peakRSS, "MB")
	res.Correct = res.Failed == 0
	res.wall = time.Since(begin)
	return res, nil
}

// classes names the primary and secondary request of each closed-loop
// workload; their medians are primary_p50_ms and secondary_p50_ms.
var classes = map[string][2]opKind{
	"point_predict": {opPredict, opPredictBatch},
	"ingest_tick":   {opObserveOne, opObserveBulk},
	"fleet_mixed":   {opPredict, opRange},
}

// runBlocks drives the workload's list block by block. Block 0 warms up
// and is discarded; each timing metric is the median over the remaining
// equal-work blocks, and CPU is the child's utime+stime across them. The
// host probe runs before every block, while the server is idle.
func (h *harness) runBlocks(name string, list opList, res *result) error {
	warm := runBlock(h.conns, list.block(0))
	res.count(warm.requests, warm.failed, warm.firstErr)

	before, err := h.srv.usage()
	if err != nil {
		return err
	}
	hs := hostSpeed{p: h.host}
	var p50 [2][]float64
	var rate []float64
	totalOps := 0
	for b := 1; b < len(list[0]); b++ {
		if err := hs.take(2); err != nil {
			return err
		}
		br := runBlock(h.conns, list.block(b))
		res.count(br.requests, br.failed, br.firstErr)
		n := br.requests
		if name == "ingest_tick" {
			n = br.points // an op is a point
		}
		totalOps += n
		rate = append(rate, float64(n)/br.wall.Seconds())
		for i, k := range classes[name] {
			slices.Sort(br.lat[k])
			p50[i] = append(p50[i], ms(quantile(br.lat[k], 0.5)))
		}
	}
	after, err := h.srv.usage()
	if err != nil {
		return err
	}
	res.setRate("ops_per_s", median(rate), "1/s", &hs, closedLoopExponent)
	res.setTimed("primary_p50_ms", median(p50[0]), "ms", &hs, closedLoopExponent)
	res.setTimed("secondary_p50_ms", median(p50[1]), "ms", &hs, closedLoopExponent)
	res.setTimed("cpu_us_per_op", us(after.cpu-before.cpu)/float64(totalOps), "us", &hs, closedLoopExponent)
	return nil
}

// accuracy asks where every trained object will be at each probe horizon
// and scores the top answer against the generator's true future point: the
// paper's accuracy metric, mean_error.
func (h *harness) accuracy(ps []probe, res *result) error {
	var sum float64
	failed := 0
	var firstErr error
	for i := range ps {
		status, body, err := h.conns[0].do(ps[i].op.req)
		var pr predictResponse
		if err == nil && status == 200 {
			err = json.Unmarshal(body, &pr)
		}
		if err != nil || status != 200 || len(pr.Predictions) == 0 {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("probe %s: status %d err %v", h.f.trained[ps[i].op.obj].id, status, err)
			}
			if err != nil && status == 0 {
				return firstErr // transport gone
			}
			continue
		}
		dx, dy := pr.Predictions[0].X-ps[i].truth.X, pr.Predictions[0].Y-ps[i].truth.Y
		sum += math.Hypot(dx, dy)
	}
	res.count(len(ps), failed, firstErr)
	if n := len(ps) - failed; n > 0 {
		res.set("mean_error", sum/float64(n), "units")
	}
	return nil
}

// predictResponse is the part of a predict reply the probe reads.
type predictResponse struct {
	Tq          int `json:"tq"`
	Predictions []struct {
		X    float64 `json:"x"`
		Y    float64 `json:"y"`
		Path string  `json:"path"`
	} `json:"predictions"`
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
