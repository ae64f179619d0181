package serve

import (
	"bytes"
	"fmt"
	"net/http"

	"hpm"
)

// GET /metrics renders the store's operational counters in the Prometheus
// text exposition format (0.0.4) with nothing but the standard library:
// fleet shape, WAL commit activity, training health, query traffic by
// answering path, and the online evaluator's per-horizon × per-path
// accuracy matrix. Every cell of the matrix is always emitted — zero or
// not — so scrapes see a stable series set and rate() never loses a
// series to sparsity.

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.st
	fs := st.FleetStats()
	var b bytes.Buffer

	gauge := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}

	gauge("hpm_objects", "Tracked objects.", fs.Objects)
	gauge("hpm_objects_trained", "Objects serving a trained model.", fs.Trained)
	counter("hpm_train_failures_total", "Failed train attempts, and Extends failed during recovery, since start.", fs.TrainFailures)

	// Model-update cost by path: full batch trains vs incremental extends.
	// rate(duration)/rate(count) is the live per-update cost each path pays.
	counter("hpm_trains_total", "Full model train attempts, failed ones included.", fs.Trains)
	counter("hpm_extends_total", "Incremental model updates (Extends).", fs.Extends)
	counter("hpm_train_duration_seconds_total", "Cumulative wall-clock seconds spent in full trains.", fs.TrainSeconds)
	counter("hpm_extend_duration_seconds_total", "Cumulative wall-clock seconds spent in incremental extends.", fs.ExtendSeconds)
	counter("hpm_miner_seeds_total", "Extends that first seeded their object's incremental miner from its model (the first after a train or a load).", fs.MinerSeeds)
	counter("hpm_miner_seed_seconds_total", "Cumulative wall-clock seconds those seedings took, within the extends' own.", fs.MinerSeedSeconds)
	gauge("hpm_miners", "Objects whose model holds a seeded incremental miner.", fs.Miners)
	gauge("hpm_miner_itemsets", "Frequent itemsets tracked across the seeded incremental miners.", fs.MinerItemsets)
	gauge("hpm_miner_bytes", "Bytes the seeded incremental miners hold between extends: their itemset trees' slot slabs and region roots, free lists and walk scratch.", fs.MinerBytes)
	gauge("hpm_tree_bytes", "Bytes the trained models' pattern trees hold in their slabs: key words, leaf table rows and child pointers.", fs.TreeBytes)

	counter("hpm_fallback_fits_total", "Motion functions actually fitted by fallback queries (cache misses).", fs.Queries.FallbackFits)

	if fs.FleetIndex {
		gauge("hpm_index_objects", "Objects with cached entries in the fleet spatial index.", fs.Spatial.Objects)
		gauge("hpm_index_entries", "Cached prediction entries in the fleet spatial index, at its live buckets only.", fs.Spatial.Entries)
		gauge("hpm_index_live_buckets", "Fleet-index horizon buckets maintained on every refresh: those some fleet query has read since start.", fs.Spatial.LiveBuckets)
		counter("hpm_index_bucket_builds_total", "Fleet-index buckets built by the first query that read them, one prediction per object each.", fs.Spatial.Builds)
		counter("hpm_index_bucket_build_seconds_total", "Cumulative wall-clock seconds spent building fleet-index buckets.", fs.Spatial.BuildSeconds)
		counter("hpm_index_updates_total", "Incremental fleet-index refreshes (one per acknowledged observe or first-train install once a bucket is live, and one per object per bucket build).", fs.Spatial.Updates)
		counter("hpm_index_rebins_total", "Fleet-index entries that crossed a grid cell on refresh.", fs.Spatial.Rebins)
		counter("hpm_index_range_queries_total", "Fleet range queries answered from the index.", fs.Spatial.RangeQueries)
		counter("hpm_index_knn_queries_total", "Fleet kNN queries answered from the index.", fs.Spatial.KNNQueries)
	}

	counter("hpm_wal_records_total", "Observation records appended to the write-ahead log.", fs.WAL.Records)
	counter("hpm_wal_batches_total", "WAL group commits (file writes).", fs.WAL.Batches)
	counter("hpm_wal_fsyncs_total", "WAL fsyncs issued.", fs.WAL.Fsyncs)

	// Checkpoint cost: rate(objects)/rate(checkpoints) is the per-pass
	// re-encode volume — near the fleet size under full rewrites, near the
	// dirty fraction under incremental checkpoints.
	counter("hpm_checkpoints_total", "Completed checkpoints.", fs.Checkpoints)
	counter("hpm_checkpoint_duration_seconds_total", "Cumulative wall-clock seconds spent in checkpoints.", fs.CheckpointSeconds)
	counter("hpm_checkpoint_objects_written_total", "Objects re-encoded by checkpoints (dirty shards only when incremental).", fs.CheckpointObjects)
	gauge("hpm_snapshot_bytes", "On-disk size of the current snapshot (manifest plus live segments).", fs.SnapshotBytes)

	// Where the start-up went: the wall time of each phase of store.Open.
	if oi := st.Health().Open; oi != nil {
		fmt.Fprintf(&b, "# HELP hpm_open_seconds Wall-clock seconds each phase of opening the durable store took at start-up.\n")
		fmt.Fprintf(&b, "# TYPE hpm_open_seconds gauge\n")
		fmt.Fprintf(&b, "hpm_open_seconds{phase=\"load\"} %g\n", oi.LoadSeconds)
		fmt.Fprintf(&b, "hpm_open_seconds{phase=\"replay\"} %g\n", oi.ReplaySeconds)
		fmt.Fprintf(&b, "hpm_open_seconds{phase=\"recover\"} %g\n", oi.RecoverSeconds)
		gauge("hpm_open_models", "Trained objects the snapshot held at start-up, each pattern index laid out from its saved shape.", oi.Models)
		gauge("hpm_open_replay_extends", "Replayed WAL records that carried an object over a period boundary into an Extend.", oi.ReplayExtends)
	}

	// Degradation ladder: the read-only state machine, its causes, and the
	// admission layer's shedding. hpm_degraded is the alert-on gauge; the
	// per-{endpoint,reason} shed series only appear once they fire (the
	// label space is open-ended), with the _total counter always present.
	degraded := 0
	if fs.Degraded {
		degraded = 1
	}
	gauge("hpm_degraded", "1 while the store is degraded read-only (WAL failure), else 0.", degraded)
	counter("hpm_wal_errors_total", "Failed WAL group commits (write or fsync) since start.", fs.WALErrors)
	counter("hpm_recoveries_total", "Completed degrade-to-healthy recovery cycles.", fs.Recoveries)
	if s.subs != nil {
		gauge("hpm_subscribers", "Live SSE subscriber streams.", s.subs.count())
	}
	fmt.Fprintf(&b, "# HELP hpm_shed_total Requests shed by admission control, by endpoint and reason.\n")
	fmt.Fprintf(&b, "# TYPE hpm_shed_total counter\n")
	fmt.Fprintf(&b, "hpm_shed_total %d\n", s.shed.total())
	for _, sm := range s.shed.snapshot() {
		fmt.Fprintf(&b, "hpm_shed_total{endpoint=%q,reason=%q} %d\n", sm.endpoint, sm.reason, sm.n)
	}

	// The path label set comes from the hpa.Path registry — every answering
	// path plus the synthetic "unanswered" outcome — so a newly added path
	// appears here without this exporter changing.
	fmt.Fprintf(&b, "# HELP hpm_queries_total Model evaluations, one per query time, by answering path (answers reused from an object's memo are hpm_answers_reused_total).\n")
	fmt.Fprintf(&b, "# TYPE hpm_queries_total counter\n")
	for _, p := range hpm.Paths() {
		fmt.Fprintf(&b, "hpm_queries_total{path=%q} %d\n", p.String(), fs.Queries.ByPath(p))
	}
	fmt.Fprintf(&b, "hpm_queries_total{path=\"unanswered\"} %d\n", fs.Queries.Unanswered)
	counter("hpm_answers_reused_total", "Answers, one per query time, served from the object's memo of answers given since its last write, without a model evaluation.", fs.AnswersReused)
	counter("hpm_query_nodes_visited_total", "Trajectory-pattern-tree nodes touched by query searches (building a backward query's per-offset confidence ranking is index maintenance and not counted).", fs.Queries.NodesVisited)
	fmt.Fprintf(&b, "# HELP hpm_ranked_list_builds_total Backward queries' per-offset confidence rankings made ready to read: from=\"tree\" built by a search on the offset's first read, from=\"members\" re-ranked from their own entries after a model update marked them stale.\n")
	fmt.Fprintf(&b, "# TYPE hpm_ranked_list_builds_total counter\n")
	fmt.Fprintf(&b, "hpm_ranked_list_builds_total{from=\"tree\"} %d\n", fs.Queries.RankBuilds)
	fmt.Fprintf(&b, "hpm_ranked_list_builds_total{from=\"members\"} %d\n", fs.Queries.RankReranks)

	gauge("hpm_eval_outstanding", "Served predictions awaiting their ground truth.", fs.Eval.Outstanding)
	counter("hpm_eval_recorded_total", "Served predictions parked for scoring.", fs.Eval.Recorded)
	counter("hpm_eval_scored_total", "Predictions scored against an arrived observation.", fs.Eval.Scored)
	counter("hpm_eval_expired_total", "Parked predictions whose timestamp passed unobserved.", fs.Eval.Expired)
	counter("hpm_eval_evicted_total", "Parked predictions dropped to ring pressure.", fs.Eval.Evicted)

	fmt.Fprintf(&b, "# HELP hpm_eval_attempts_total Scored predictions by horizon bucket and requested route (declines charged to the route, not the path that answered).\n")
	fmt.Fprintf(&b, "# TYPE hpm_eval_attempts_total counter\n")
	for _, c := range fs.Eval.Cells {
		fmt.Fprintf(&b, "hpm_eval_attempts_total{horizon_le=%q,path=%q} %d\n", c.HorizonLE, c.Path, c.Attempts)
	}
	fmt.Fprintf(&b, "# HELP hpm_eval_hits_total Scored predictions within the hit distance, by horizon bucket and requested route.\n")
	fmt.Fprintf(&b, "# TYPE hpm_eval_hits_total counter\n")
	for _, c := range fs.Eval.Cells {
		fmt.Fprintf(&b, "hpm_eval_hits_total{horizon_le=%q,path=%q} %d\n", c.HorizonLE, c.Path, c.Hits)
	}
	fmt.Fprintf(&b, "# HELP hpm_eval_error_distance_sum Total error distance of scored predictions, by horizon bucket and requested route.\n")
	fmt.Fprintf(&b, "# TYPE hpm_eval_error_distance_sum counter\n")
	for _, c := range fs.Eval.Cells {
		fmt.Fprintf(&b, "hpm_eval_error_distance_sum{horizon_le=%q,path=%q} %g\n", c.HorizonLE, c.Path, c.ErrorSum)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b.Bytes())
}
