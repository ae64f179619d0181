package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"hpm"
	"hpm/store"
)

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTrace is the --trace 1 run of one workload: every per-layer metric,
// by name. A layer the workload never reaches reads 0.
func runTrace(name string, seed int64, sc scale, prov *provenance) (*result, error) {
	begin := time.Now()
	dataDir, err := newDataDir(prov)
	if err != nil {
		return nil, err
	}

	// A fifth of every measured block. The warm-up stays whole: what it
	// establishes (every object has extended once) does not scale.
	small := sc
	small.PredictPerBlock = max(sc.Conns, sc.PredictPerBlock/traceDivisor)
	small.IngestTicks = max(1, sc.IngestTicks/traceDivisor)
	small.MixedTicks = max(1, sc.MixedTicks/traceDivisor)

	f := newFleet(sc)
	list := generators[name](f, seed, small)
	list.encode(f)

	e, err := newTraceEnv(f, seed, sc, filepath.Join(dataDir, "data"))
	if err != nil {
		return nil, err
	}
	defer e.close()
	host, err := newHostProbe()
	if err != nil {
		return nil, err
	}
	defer host.close()
	e.host = hostSpeed{p: host}
	if err := e.host.takeSpaced(probeAround); err != nil {
		return nil, err
	}
	res := &result{Metrics: map[string]metric{}}
	afterSetup := e.st.FleetStats()

	var p persistence
	var before, after store.FleetStats
	var walGrowth int64
	if name == "restart" {
		if err := e.runRestartTrace(list, &p); err != nil {
			return nil, err
		}
	} else {
		e.warm(list)
		before, walGrowth = e.st.FleetStats(), -walBytes(e.dir)
		e.run(list)
		after, walGrowth = e.st.FleetStats(), walGrowth+walBytes(e.dir)
		if e.observePoints > 0 {
			if err := e.layerBenches(); err != nil {
				return nil, err
			}
		}
	}
	if err := e.trainStages(); err != nil {
		return nil, err
	}
	if err := e.host.takeSpaced(probeAround); err != nil {
		return nil, err
	}
	e.counts(res, list, before, after, float64(walGrowth))
	e.layers(res, name, afterSetup, &p)
	// The layer timings are as the clock read them; the probe's reading
	// says what state the host was in while they were taken.
	res.set("host.probe_us", e.host.probeUs(), "us")
	if err := e.t.write(name); err != nil {
		return nil, err
	}
	res.Attempted, res.Failed, res.firstErr = max(1, e.attempted), e.failed, e.firstErr
	res.Correct = e.failed == 0
	res.wall = time.Since(begin)
	return res, nil
}

// walBytes sums the WAL segments' sizes.
func walBytes(dir string) int64 {
	var n int64
	names, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")) // the pattern is well formed
	for _, name := range names {
		if st, err := os.Stat(name); err == nil {
			n += st.Size()
		}
	}
	return n
}

// counts derives the ratio metrics from the program's own counters —
// FleetStats, which carries WALStats — before and after the measured
// blocks.
func (e *traceEnv) counts(res *result, list opList, before, after store.FleetStats, walGrowth float64) {
	points := 0.0
	for c := range list {
		for b := 1; b < len(list[c]); b++ {
			for i := range list[c][b] {
				points += float64(list[c][b][i].points())
			}
		}
	}
	wal, wal0 := after.WAL, before.WAL
	res.set("store.wal.fsyncs_per_record", ratio(float64(wal.Fsyncs-wal0.Fsyncs), float64(wal.Records-wal0.Records)), "count")
	res.set("store.wal.records_per_batch", ratio(float64(wal.Records-wal0.Records), float64(wal.Batches-wal0.Batches)), "count")
	res.set("store.wal.bytes_per_point", ratio(walGrowth, points), "B")
	sp, sp0 := after.Spatial, before.Spatial
	res.set("spatial.rebins_per_update", ratio(float64(sp.Rebins-sp0.Rebins), float64(sp.Updates-sp0.Updates)), "count")
	res.set("evalq.scored_per_point", ratio(float64(after.Eval.Scored-before.Eval.Scored), points), "count")
	extends, extendS := float64(after.Extends-before.Extends), after.ExtendSeconds-before.ExtendSeconds
	res.set("core.extend_ms_mean", ratio(extendS*1000, extends), "ms")
	res.set("core.extends_per_kpoint", ratio(extends*1000, points), "count")
	// Every observed point passes through the store at some depth, so the
	// store's total observe time is points × its mean per point.
	res.set("core.extend_share", ratio(extendS*1e6, e.observeMean()*points), "ratio")
	q, q0 := after.Queries, before.Queries
	res.set("tpt.nodes_per_query", ratio(float64(q.NodesVisited-q0.NodesVisited), float64(q.Queries-q0.Queries)), "count")
	hit := 0.0
	if fb := float64(q.Fallback - q0.Fallback); fb > 0 {
		hit = max(0, 1-float64(q.FallbackFits-q0.FallbackFits)/fb)
	}
	res.set("hpa.fallback_fit_hit_ratio", hit, "ratio")
}

// persistence is what the restart trace measured.
type persistence struct {
	checkpointMs, bytesPerObject, loadMs, replayMs, replayRate float64
}

// runRestartTrace times the persistence layer through its public calls:
// Checkpoint, Close, a clean Open, then a WAL tail and an Open of a copy
// of the live directory — what a SIGKILL leaves behind, since every
// acknowledged record is already in its segment.
func (e *traceEnv) runRestartTrace(list opList, p *persistence) error {
	objects := float64(len(e.f.trained) + len(e.f.cold))
	var err error
	e.t.time("store.checkpoint", "", 0, true, func() { err = e.st.Checkpoint() })
	if err != nil {
		return err
	}
	p.checkpointMs = e.t.mean("store.checkpoint") / 1000
	p.bytesPerObject = float64(e.st.Health().SnapshotBytes) / objects
	if err := e.st.Close(); err != nil {
		return err
	}
	e.t.time("store.open.clean", "", 1, true, func() { e.st, err = store.Open(e.dir, serverOptions()) })
	if err != nil {
		e.st = nil
		return err
	}
	p.loadMs = e.t.mean("store.open.clean") / 1000

	ctx := context.Background()
	tail := 0
	for c := range list {
		for i := range list[c][0] {
			o := &list[c][0][i]
			e.attempted++
			if err := e.st.ObserveAllContext(ctx, storeBatch(o)); err != nil {
				return err
			}
			tail += o.points()
		}
	}
	crash := e.dir + "-crash"
	if err := copyDir(e.dir, crash); err != nil {
		return err
	}
	var rec *store.Store
	e.t.time("store.open.recover", "", 2, true, func() { rec, err = store.Open(crash, serverOptions()) })
	if err != nil {
		return err
	}
	replayed := rec.Health().WALReplayed
	if err := rec.Close(); err != nil {
		return err
	}
	e.attempted++
	if replayed != tail {
		e.fail(fmt.Errorf("recovery replayed %d WAL records, %d were acknowledged", replayed, tail))
	}
	p.replayMs = max(0, e.t.mean("store.open.recover")/1000-p.loadMs)
	p.replayRate = ratio(float64(replayed), p.replayMs/1000)
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// layers fills in every timing metric from the spans.
func (e *traceEnv) layers(res *result, workload string, afterSetup store.FleetStats, p *persistence) {
	t := e.t
	// Observe requests come in two sizes; the network layer is reported
	// per request of the commoner one.
	observe := "observe_bulk"
	if t.count("client.observe_one") > t.count("client.observe_bulk") {
		observe = "observe_one"
	}
	res.set("net.predict_us", t.self("client.predict", "serve.predict"), "us")
	res.set("net.observe_us", t.self("client."+observe, "serve."+observe), "us")
	res.set("net.range_us", t.self("client.range", "serve.range"), "us")
	for _, kind := range opKindNames {
		res.set("serve."+kind+"_us", t.self("serve."+kind, "store."+kind), "us")
	}
	res.set("serve.resp_bytes_per_op", ratio(float64(e.respBytes), float64(e.respCount)), "B")

	res.set("store.predict_us", t.self("descend.predict", "hpa.predict"), "us")
	answered := 0
	for _, n := range e.paths {
		answered += n
	}
	for _, path := range hpm.Paths() {
		res.set("hpa."+path.String()+"_us", t.mean("hpa."+path.String()), "us")
		res.set("hpa.path_share."+path.String(), ratio(float64(e.paths[path.String()]), float64(answered)), "ratio")
	}
	res.set("motion.fit_us", t.mean("motion.fit"), "us")

	res.set("store.observe_us", e.observeMean(), "us")
	walAppend := 0.0
	if e.observePoints > 0 {
		walAppend = max(0, e.observeMean()-t.mean("mem.observe"))
	}
	res.set("store.wal.append_us", walAppend, "us")
	res.set("markov.fold_us", t.mean("markov.fold"), "us")
	res.set("spatial.update_us", t.mean("spatial.update"), "us")
	res.set("evalq.score_us", t.mean("evalq.score"), "us")
	res.set("spatial.range_us", t.mean("spatial.range"), "us")
	res.set("spatial.knn_us", t.mean("spatial.knn"), "us")
	res.set("spatial.results_per_range", ratio(float64(e.rangeHits), float64(e.rangeCount)), "count")

	res.set("store.snapshot.checkpoint_ms", p.checkpointMs, "ms")
	res.set("store.snapshot.bytes_per_object", p.bytesPerObject, "B")
	res.set("store.open.load_ms", p.loadMs, "ms")
	res.set("store.wal.replay_ms", p.replayMs, "ms")
	res.set("store.wal.replay_records_per_s", p.replayRate, "1/s")

	res.set("core.train_ms_mean", ratio(afterSetup.TrainSeconds*1000, float64(afterSetup.Trains)), "ms")
	res.set("cluster.dbscan_ms", t.mean("cluster.dbscan")/1000, "ms")
	res.set("pattern.mine_ms", t.mean("pattern.mine")/1000, "ms")
	res.set("tpt.bulkload_ms", t.mean("tpt.bulkload")/1000, "ms")

	e.clientMetrics(res, workload)
	var untraced, traced spanSum
	for _, kind := range opKindNames {
		if s := t.sums["untraced."+kind]; s != nil {
			untraced.n, untraced.total = untraced.n+s.n, untraced.total+s.total
		}
		if s := t.sums["client."+kind]; s != nil {
			traced.n, traced.total = traced.n+s.n, traced.total+s.total
		}
	}
	res.set("trace.overhead_ratio",
		ratio(ratio(us(traced.total), float64(traced.n)), ratio(us(untraced.total), float64(untraced.n))), "ratio")
}

// clientMetrics reports what the loopback client saw: the p99 of the
// workload's primary and secondary request with its sample count, so a
// reader can judge how far into the tail it reaches, and how unevenly
// five equal parts of the traced loopback traffic ran.
func (e *traceEnv) clientMetrics(res *result, workload string) {
	for i, label := range []string{"primary", "secondary"} {
		var lat []time.Duration
		if kinds, ok := classes[workload]; ok {
			lat = slices.Clone(e.clientLat[kinds[i]])
			slices.Sort(lat)
		}
		res.set("client."+label+"_p99_ms", ms(quantile(lat, 0.99)), "ms")
		res.set("client.samples."+label, float64(len(lat)), "count")
	}
	var all []time.Duration
	for i := range e.t.spans {
		if s := &e.t.spans[i]; strings.HasPrefix(s.Name, "client.") {
			all = append(all, time.Duration(s.End-s.Start))
		}
	}
	const parts = 5
	spread := 0.0
	if len(all) >= parts {
		rates := make([]float64, parts)
		for p := range rates {
			var sum time.Duration
			chunk := all[p*len(all)/parts : (p+1)*len(all)/parts]
			for _, d := range chunk {
				sum += d
			}
			rates[p] = float64(len(chunk)) / sum.Seconds()
		}
		spread = ratio(slices.Max(rates)-slices.Min(rates), median(rates))
	}
	res.set("client.block_spread", spread, "ratio")
}
