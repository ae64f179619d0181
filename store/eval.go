package store

import (
	"context"
	"math/bits"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/spatial"
)

// Online prequential evaluation (test-then-train): every prediction a
// query serves is parked in the object's bounded evalq ring, and every
// acknowledged observation is ground truth for the parked predictions
// whose query timestamp it covers. The resulting per-horizon × per-path
// accuracy counters reproduce the paper's accuracy-vs-query-time figures
// on live traffic and surface through EvalStats, FleetStats and serve's
// /metrics endpoint.

// recordPrediction parks a query's top answer in the object's evaluator,
// labeled with the ROUTE that served it — the path the query was sent
// down — not the path that ultimately produced the answer. The two
// differ when a route declines and falls through (the markov chain
// falling back to the motion function, the pattern dispatch falling
// through to the chain): the fall-through answer is part of what that
// route delivers, so it must score against the route's cell. Labeling by
// answering path instead would condition each cell on "the path chose to
// answer" — a sunny-day population that systematically overstates a
// selective path. (The engine's own per-path query counters still count
// answering paths; that is the traffic view, this is the per-route
// accuracy view.) Called with obj.mu at least read-locked; the tracker
// has its own lock, so concurrent queries record without write-locking
// the object.
func (s *Store) recordPrediction(obj *object, now, tq int, route evalq.Path, preds []hpm.Prediction, err error) {
	if err != nil || len(preds) == 0 || obj.eval == nil {
		return
	}
	obj.eval.Record(now, tq, route, preds[0].Location)
}

// patternPath is the pattern route label for a query: the paper's hybrid
// dispatch answers near queries with FQP and distant ones with BQP.
// Called with obj.mu at least read-locked and obj.predictor non-nil.
func (s *Store) patternPath(obj *object, now, tq int) evalq.Path {
	if obj.predictor.IsDistant(now, tq) {
		return evalq.PathBackward
	}
	return evalq.PathForward
}

// PredictVia answers a query down one named route: PathFallback is the
// motion function alone, PathMarkov the region chain (motion when it
// declines), PathForward or PathBackward the hybrid pattern dispatch, which
// picks FQP or BQP by horizon itself. The answer is parked and scored like
// any other, so shadow calls beside Predict fill every column of the
// accuracy matrix — the per-path comparison the paper makes offline.
func (s *Store) PredictVia(id string, route evalq.Path, tq, k int) (preds []hpm.Prediction, err error) {
	err = s.withTrained(context.Background(), id, func(obj *object, now int) error {
		if err := checkHorizon(now, tq); err != nil {
			return err
		}
		if route == evalq.PathForward || route == evalq.PathBackward {
			route = s.patternPath(obj, now, tq)
		}
		// The answer is parked under route, fall-throughs included, so each
		// route's cell is charged for what it actually delivered.
		preds, err = obj.predictor.PredictVia(route, s.recentLocked(obj), tq, k)
		s.recordPrediction(obj, now, tq, route, preds, err)
		return err
	})
	return preds, err
}

// EvalStats returns one object's online evaluation summary. A store with
// evaluation disabled returns an empty summary with stable (all-zero)
// cells.
func (s *Store) EvalStats(id string) (evalq.Summary, error) {
	obj, err := s.get(id, false)
	if err != nil {
		return evalq.Summary{}, err
	}
	if obj.eval == nil {
		return evalq.Summarize(s.opts.Eval, evalq.Agg{}), nil
	}
	return obj.eval.Snapshot(), nil
}

// EvalConfig returns the normalized evaluator configuration (buckets, hit
// distance, ring bound) shared by every object's tracker.
func (s *Store) EvalConfig() evalq.Config { return s.opts.Eval }

// FleetStats is the store-wide operational summary: the fleet shape, the
// durable-ingest counters, training health, aggregate query traffic by
// answering path, and the merged online-evaluation matrix.
type FleetStats struct {
	Objects int `json:"objects"`
	Trained int `json:"trained"`
	// Miners counts the objects whose model holds a seeded incremental
	// miner (it has run an Extend since it was trained or loaded);
	// MinerItemsets sums the frequent itemsets those miners track, and
	// MinerBytes what their itemset trees, free lists and walk scratch hold.
	// MinerSeeds counts the Extends since start that seeded one (the first
	// after each train or load), MinerSeedSeconds what that took of them.
	Miners           int     `json:"miners"`
	MinerItemsets    int     `json:"minerItemsets"`
	MinerBytes       int     `json:"minerBytes"`
	MinerSeeds       uint64  `json:"minerSeeds"`
	MinerSeedSeconds float64 `json:"minerSeedSeconds"`
	// TreeBytes sums what every trained model's pattern tree holds in its
	// slabs: key words, leaf table rows and child pointers.
	TreeBytes int `json:"treeBytes"`
	// TrainFailures counts every failed train attempt, and every Extend
	// that failed during recovery, since start.
	TrainFailures uint64 `json:"trainFailures"`
	// State mirrors Health: the degradation state machine's position, the
	// failed-group-commit count, and completed degrade/recover cycles.
	State      string `json:"state"`
	Degraded   bool   `json:"degraded"`
	WALErrors  uint64 `json:"walErrors"`
	Recoveries uint64 `json:"recoveries"`
	// Trains and Extends count model updates by path since start (every
	// train attempt counts, failed ones included); TrainSeconds and
	// ExtendSeconds are the cumulative wall-clock each path consumed — the
	// live view of the batch-vs-incremental update cost.
	Trains        uint64  `json:"trains"`
	Extends       uint64  `json:"extends"`
	TrainSeconds  float64 `json:"trainSeconds"`
	ExtendSeconds float64 `json:"extendSeconds"`
	WAL           WALStats
	// Checkpoints counts completed checkpoints; CheckpointSeconds and
	// CheckpointObjects the cumulative wall-clock and objects re-encoded
	// across them (incremental checkpoints re-encode only dirty shards, so
	// objects-per-checkpoint tracks the dirty fraction, not the fleet).
	// SnapshotBytes is the on-disk size of the current snapshot (manifest
	// plus live segments); LastCheckpoint describes the most recent one.
	Checkpoints       uint64          `json:"checkpoints"`
	CheckpointSeconds float64         `json:"checkpointSeconds"`
	CheckpointObjects uint64          `json:"checkpointObjects"`
	SnapshotBytes     uint64          `json:"snapshotBytes"`
	LastCheckpoint    *CheckpointInfo `json:"lastCheckpoint,omitempty"`
	// Queries sums every object's query counters: model evaluations, one
	// per query time. A predictor is never replaced once trained, so its
	// counters cover the object's life. AnswersReused counts the answers,
	// again one per query time, served from an object's memo instead; they
	// reach no model and so no query counter.
	Queries       hpm.QueryStats
	AnswersReused uint64 `json:"answersReused"`
	Eval          evalq.Summary
	// FleetIndex reports whether the predictive spatial index is enabled;
	// Spatial is its shape and traffic counters (zero when disabled).
	FleetIndex bool          `json:"fleetIndex"`
	Spatial    spatial.Stats `json:"spatial"`
}

// FleetStats aggregates across every object. Shards are visited one at a
// time; objects added mid-walk may or may not be counted, like
// any concurrent summary.
func (s *Store) FleetStats() FleetStats {
	var fs FleetStats
	var agg evalq.Agg
	for _, obj := range s.listObjects() {
		fs.Objects++
		obj.mu.RLock()
		if obj.predictor != nil {
			fs.Trained++
			fs.Queries = fs.Queries.Add(obj.predictor.QueryStats())
			fs.TreeBytes += obj.predictor.Model().TreeBytes()
			if n, ok := obj.predictor.Model().MinerItemsets(); ok {
				fs.Miners++
				fs.MinerItemsets += n
				fs.MinerBytes += obj.predictor.Model().MinerBytes()
			}
		}
		obj.mu.RUnlock()
		if obj.eval != nil {
			obj.eval.MergeInto(&agg)
		}
	}
	fs.Eval = evalq.Summarize(s.opts.Eval, agg)
	fs.AnswersReused = s.reused.Load()
	if s.wal != nil {
		r, b, f := s.wal.stats()
		fs.WAL = WALStats{Records: r, Batches: b, Fsyncs: f}
	}
	fs.Checkpoints = s.checkpoints.Load()
	fs.CheckpointSeconds = float64(s.checkpointNanos.Load()) / 1e9
	fs.CheckpointObjects = s.checkpointObjs.Load()
	fs.SnapshotBytes = s.snapshotBytes.Load()
	fs.LastCheckpoint = s.lastCheckpoint.Load()
	if s.index != nil {
		fs.FleetIndex = true
		fs.Spatial = s.index.Stats()
		fs.Spatial.LiveBuckets = int64(bits.OnesCount64(s.idxLive.Load()))
		fs.Spatial.Builds = int64(s.idxBuilds.Load())
		fs.Spatial.BuildSeconds = float64(s.idxBuildNanos.Load()) / 1e9
	}
	fs.State = s.stateName()
	fs.Degraded = s.degraded()
	fs.WALErrors = s.walErrors.Load()
	fs.Recoveries = s.recoveries.Load()
	fs.Trains = s.trains.Load()
	fs.Extends = s.extends.Load()
	fs.TrainSeconds = float64(s.trainNanos.Load()) / 1e9
	fs.ExtendSeconds = float64(s.extendNanos.Load()) / 1e9
	fs.MinerSeeds = s.seeds.Load()
	fs.MinerSeedSeconds = float64(s.seedNanos.Load()) / 1e9
	fs.TrainFailures = s.trainFailures.Load()
	return fs
}
