package store

import (
	"context"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/spatial"
)

// Online prequential evaluation (test-then-train): every prediction a
// query serves is parked in the object's bounded evalq ring, and every
// acknowledged observation is ground truth for the parked predictions
// whose query timestamp it covers. The resulting per-horizon × per-path
// accuracy counters reproduce the paper's accuracy-vs-query-time figures
// on live traffic, drive the drift-triggered early retrain
// (Options.DriftThreshold) and the adaptive fallback routing
// (Options.AdaptiveRouting), and surface through EvalStats, FleetStats
// and serve's /metrics endpoint.

// recordPrediction parks a query's top answer in the object's evaluator,
// labeled with the ROUTE that served it — the path the query was sent
// down — not the path that ultimately produced the answer. The two
// differ when a route declines and falls through (the markov chain
// falling back to the motion function, the pattern dispatch falling
// through to the chain): the fall-through answer is part of what that
// route delivers, so it must score against the route's cell. Labeling by
// answering path instead would condition each cell on "the path chose to
// answer" — a sunny-day population that systematically overstates a
// selective path, and routing built on it sends traffic to a path whose
// declines it has never been charged for. (The engine's own per-path
// query counters still count answering paths; that is the traffic view,
// this is the routing view.) Called with obj.mu at least read-locked;
// the tracker has its own lock, so concurrent queries record without
// write-locking the object.
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

// scoreLocked scores the just-appended observations against the object's
// outstanding predictions and, when the drift EWMA crosses the threshold,
// schedules an early retrain through the normal training pool. Called
// with obj.mu held for writing, right after track grew past base.
func (s *Store) scoreLocked(obj *object, base int, pts []hpm.Point) {
	scored, ewma, n := obj.eval.Observe(base, pts)
	if scored == 0 || s.opts.DriftThreshold <= 0 {
		return
	}
	if ewma <= s.opts.DriftThreshold || n < s.driftMinScores {
		return
	}
	if obj.predictor == nil || obj.training {
		// Untrained objects have nothing to refresh; an in-flight train
		// will absorb the new data when it swaps in.
		return
	}
	completed := (obj.base + len(obj.track)) / s.opts.Config.Period
	if completed < s.opts.MinTrainPeriods {
		return
	}
	// Trainer-saturation valve: drift retrains are opportunistic quality
	// work, so when the background pool is already backlogged they yield
	// rather than pile on. The EWMA is deliberately NOT reset here — the
	// drift signal stays hot and re-fires on a later observation once the
	// backlog clears.
	s.trainMu.Lock()
	backlogged := s.pending >= trainBacklogPerWorker*s.workers
	s.trainMu.Unlock()
	if backlogged {
		s.driftSuppressed.Add(1)
		return
	}
	// Reset first so the retrained model starts with a clean signal and
	// one straggling error cannot immediately re-fire.
	obj.eval.ResetEWMA()
	obj.driftRetrains++
	s.driftRetrains.Add(1)
	// Synchronous-training failures already land in the object's stats;
	// an ingest should not fail because a quality-driven retrain did.
	_ = s.startTrain(obj, completed)
}

// routePath picks this query's answering path: the pattern path the
// hybrid dispatch would use (FQP or BQP by horizon), unless adaptive
// routing has measured another path — the Markov chain or the motion
// fallback — strictly ahead at the query's horizon with enough samples.
// Called with obj.mu at least read-locked and obj.predictor non-nil.
func (s *Store) routePath(obj *object, now, tq int) evalq.Path {
	pat := s.patternPath(obj, now, tq)
	if !s.opts.AdaptiveRouting || obj.eval == nil || tq <= now {
		return pat
	}
	min := uint64(s.opts.AdaptiveMinSamples)
	if obj.predictor.Model().MarkovEnabled() {
		return obj.eval.BestPath(tq-now, []evalq.Path{pat, evalq.PathMarkov, evalq.PathFallback}, min)
	}
	return obj.eval.BestPath(tq-now, []evalq.Path{pat, evalq.PathFallback}, min)
}

// PredictVia answers a query down one named route, ignoring adaptive
// routing: PathFallback is the motion function alone, PathMarkov the region
// chain (motion when it declines), PathForward or PathBackward the hybrid
// pattern dispatch, which picks FQP or BQP by horizon itself. The answer is
// parked and scored like any other, so shadow calls beside Predict fill every
// column of the accuracy matrix — the per-path comparison the paper makes
// offline, and the measurements adaptive routing decides by. Without them a
// path that loses the real traffic once could never be measured winning
// again.
func (s *Store) PredictVia(id string, route evalq.Path, tq, k int) (preds []hpm.Prediction, err error) {
	err = s.withRecent(context.Background(), id, func(obj *object, recent []hpm.TimedPoint, now int) error {
		if route == evalq.PathForward || route == evalq.PathBackward {
			route = s.patternPath(obj, now, tq)
		}
		preds, err = s.predictLocked(obj, route, recent, now, tq, k)
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
	// MinerItemsets sums the frequent itemsets those miners track — what
	// the fleet's incremental state weighs, at about 110 bytes each.
	Miners        int `json:"miners"`
	MinerItemsets int `json:"minerItemsets"`
	// PendingTrains counts scheduled background trains not yet swapped
	// in; TrainFailures every failed background attempt since start;
	// DriftRetrains the retrains the drift EWMA triggered early.
	PendingTrains int    `json:"pendingTrains"`
	TrainFailures uint64 `json:"trainFailures"`
	DriftRetrains uint64 `json:"driftRetrains"`
	// DriftSuppressed counts drift retrains the saturation valve skipped
	// because the training pool's backlog exceeded MaxTrainBacklog.
	DriftSuppressed uint64 `json:"driftSuppressed"`
	// State mirrors Health: the degradation state machine's position, the
	// failed-group-commit count, and completed degrade/recover cycles.
	State      string `json:"state"`
	Degraded   bool   `json:"degraded"`
	WALErrors  uint64 `json:"walErrors"`
	Recoveries uint64 `json:"recoveries"`
	// Trains and Extends count model updates by path since start (every
	// train attempt counts); TrainSeconds and ExtendSeconds are the
	// cumulative wall-clock each path consumed — the live view of the
	// batch-vs-incremental retrain cost.
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
	// Queries sums every object's query counters, including counters
	// banked from predictors retired by retrains.
	Queries hpm.QueryStats
	Eval    evalq.Summary
	// FleetIndex reports whether the predictive spatial index is enabled;
	// Spatial is its shape and traffic counters (zero when disabled).
	FleetIndex bool          `json:"fleetIndex"`
	Spatial    spatial.Stats `json:"spatial"`
}

// FleetStats aggregates across every object. Shards are visited one at a
// time; objects added or removed mid-walk may or may not be counted, like
// any concurrent summary.
func (s *Store) FleetStats() FleetStats {
	var fs FleetStats
	var agg evalq.Agg
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		objs := make([]*object, 0, len(sh.objects))
		for _, obj := range sh.objects {
			objs = append(objs, obj)
		}
		sh.mu.RUnlock()
		for _, obj := range objs {
			fs.Objects++
			obj.mu.RLock()
			fs.Queries = fs.Queries.Add(obj.queries)
			if obj.predictor != nil {
				fs.Trained++
				fs.Queries = fs.Queries.Add(obj.predictor.QueryStats())
				if n, ok := obj.predictor.Model().MinerItemsets(); ok {
					fs.Miners++
					fs.MinerItemsets += n
				}
			}
			obj.mu.RUnlock()
			if obj.eval != nil {
				obj.eval.MergeInto(&agg)
			}
		}
	}
	fs.Eval = evalq.Summarize(s.opts.Eval, agg)
	fs.WAL = s.WALStats()
	fs.Checkpoints = s.checkpoints.Load()
	fs.CheckpointSeconds = float64(s.checkpointNanos.Load()) / 1e9
	fs.CheckpointObjects = s.checkpointObjs.Load()
	fs.SnapshotBytes = s.snapshotBytes.Load()
	fs.LastCheckpoint = s.lastCheckpoint.Load()
	if s.index != nil {
		fs.FleetIndex = true
		fs.Spatial = s.index.Stats()
	}
	fs.DriftRetrains = s.driftRetrains.Load()
	fs.DriftSuppressed = s.driftSuppressed.Load()
	fs.State = s.State()
	fs.Degraded = s.Degraded()
	fs.WALErrors = s.walErrors.Load()
	fs.Recoveries = s.recoveries.Load()
	fs.Trains = s.trains.Load()
	fs.Extends = s.extends.Load()
	fs.TrainSeconds = float64(s.trainNanos.Load()) / 1e9
	fs.ExtendSeconds = float64(s.extendNanos.Load()) / 1e9
	s.trainMu.Lock()
	fs.PendingTrains = s.pending
	fs.TrainFailures = s.errTotal
	s.trainMu.Unlock()
	return fs
}
