// Package store manages Hybrid Prediction Models for a fleet of moving
// objects: it ingests location streams, trains a per-object model once
// enough periods accumulate, keeps each model fresh with incremental
// updates (and optional periodic retrains), and answers predictive queries
// concurrently.
//
// The paper models a single object per model — patterns are personal
// habits, so a shared model would blur them. This package is the thin
// systems layer that makes the single-object core usable as a moving-
// objects database: one model per tracked object, safe for concurrent
// Observe and Predict calls.
package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hpm"
	"hpm/internal/evalq"
	"hpm/internal/faultinject"
	"hpm/internal/spatial"
)

// Options configures a Store.
type Options struct {
	// Config is the model configuration shared by every object; its
	// Period is required. Config.SubTrajectories is ignored — the store
	// manages training windows itself.
	Config hpm.Config
	// MinTrainPeriods is how many full periods an object must accumulate
	// before its first model is trained. Values <= 0 default to
	// DefaultMinTrainPeriods.
	MinTrainPeriods int
	// RetrainEvery fully retrains a model after this many newly completed
	// periods — a batch backstop that refreshes region geometry and key
	// tables and restores index packing. Every period in between is
	// absorbed by an incremental Extend, whose cost tracks the new data,
	// not the track length. 0 disables rebuilds (extends only).
	RetrainEvery int
	// MaxRecent is the recent-movement window handed to queries. Values
	// <= 0 default to DefaultMaxRecent.
	MaxRecent int
	// SynchronousTraining runs full (re)trains inline on the observing
	// goroutine, as the store did before background training existed.
	// Useful for benchmark baselines and for callers that want train
	// errors returned directly from ObserveBatch. Synchronous trains are
	// not retried; the error goes straight back to the caller.
	SynchronousTraining bool
	// WALNoSync skips the per-commit fsync of a durable store's
	// write-ahead log, trading the zero-acknowledged-loss crash guarantee
	// for ingest throughput (a crash may lose records the OS had not yet
	// flushed; replay still recovers everything older).
	WALNoSync bool
	// Eval tunes the online prequential evaluator: ring bound, hit
	// distance D, horizon buckets, EWMA smoothing. Zero fields take the
	// evalq defaults. See internal/evalq.
	Eval evalq.Config
	// EvalDisabled turns the online evaluator off entirely: no prediction
	// is parked, no observation is scored, and the eval endpoints report
	// empty summaries.
	EvalDisabled bool
	// DriftThreshold, when positive, schedules an early retrain whenever
	// an object's error EWMA exceeds it (and at least DefaultDriftMinScores
	// predictions were scored since the last reset, so one bad prediction
	// after a retrain cannot immediately re-fire). 0 disables drift
	// detection — the default.
	DriftThreshold float64
	// AdaptiveRouting answers a Predict with the motion fallback directly
	// when the evaluator has measured the dispatched pattern path (FQP or
	// BQP) behind the fallback at the query's horizon — the paper's
	// hybrid dispatch, closed-loop on live accuracy. Off by default.
	AdaptiveRouting bool
	// AdaptiveMinSamples is the per-cell sample floor before adaptive
	// routing trusts a comparison. Values <= 0 default to
	// DefaultAdaptiveMinSamples.
	AdaptiveMinSamples int
	// DegradeAfter is how many consecutive WAL fsync failures flip a
	// durable store into degraded read-only mode. A failed segment write
	// (torn tail) or ENOSPC degrades immediately regardless. Values <= 0
	// default to DefaultDegradeAfter. See store/degrade.go.
	DegradeAfter int
	// ProbeInterval is the recovery probe's initial delay after a degrade;
	// it doubles per failed probe up to a 15s cap. Values <= 0 default to
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// FleetIndex, when non-nil, maintains a uniform-grid index over every
	// object's predicted positions at the configured horizon buckets
	// (defaulting to the evaluator's buckets), refreshed on every
	// acknowledged observe and predictor swap. Enables QueryRange,
	// QueryNearest and the scan oracles. CellSize must be positive.
	FleetIndex *spatial.Config
}

// Defaults for Options fields left at their zero value.
const (
	DefaultMinTrainPeriods    = 5
	DefaultMaxRecent          = 10
	DefaultAdaptiveMinSamples = 20
	DefaultDegradeAfter       = 3
	DefaultProbeInterval      = 500 * time.Millisecond
)

// Training policy with one value in use, so not Options.
const (
	// DefaultTrainMaxRetries is how many times a failed or panicked
	// background train is retried before the store gives up and waits for
	// the next completed period to reschedule.
	DefaultTrainMaxRetries = 3
	// DefaultTrainRetryBackoff is the delay before the first train retry;
	// it doubles per attempt up to maxTrainBackoff.
	DefaultTrainRetryBackoff = 100 * time.Millisecond
	// DefaultDriftMinScores is how many predictions must be scored since
	// the drift EWMA was last reset before drift may trigger.
	DefaultDriftMinScores = 10
	// trainBacklogPerWorker sizes the trainer-saturation valve: with this
	// many pending trains per worker, drift-triggered retrains are skipped
	// (without resetting the drift EWMA, so they re-fire once the pool
	// drains). Scheduled first-trains and periodic retrains are not valved
	// — they are the product, drift retrains are opportunistic.
	trainBacklogPerWorker = 4
)

// numShards is how many independently locked sub-maps the object table is
// split across (a power of two: shard selection is a mask). It is part of
// the on-disk format — a snapshot segment is one shard's objects — so it is
// a constant, not an option.
const numShards = 64

// maxTrainBackoff caps the exponential train-retry backoff.
const maxTrainBackoff = 5 * time.Second

// trainErrRingCap bounds the store-wide ring of recent train failures;
// older entries are dropped, the total count keeps climbing.
const trainErrRingCap = 64

func (o Options) withDefaults() Options {
	if o.MinTrainPeriods <= 0 {
		o.MinTrainPeriods = DefaultMinTrainPeriods
	}
	if o.MaxRecent <= 0 {
		o.MaxRecent = DefaultMaxRecent
	}
	o.Eval = o.Eval.WithDefaults()
	if o.DegradeAfter <= 0 {
		o.DegradeAfter = DefaultDegradeAfter
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = DefaultProbeInterval
	}
	if o.AdaptiveMinSamples <= 0 {
		o.AdaptiveMinSamples = DefaultAdaptiveMinSamples
	}
	o.Config.SubTrajectories = 0
	return o
}

// ErrUntrained is returned by queries against an object that has not yet
// accumulated enough history for its first model.
var ErrUntrained = errors.New("store: object not yet trained")

// ErrUnknownObject is returned for ids never observed.
var ErrUnknownObject = errors.New("store: unknown object")

// ErrInvalidPoint is returned by every observe call, before anything is
// recorded, for NaN or infinite coordinates, which would poison region
// discovery and motion fitting.
var ErrInvalidPoint = errors.New("store: non-finite coordinate")

// Store tracks many objects. All methods are safe for concurrent use.
//
// Full (re)trains are expensive — region discovery, pattern mining and an
// index rebuild over the whole history — so by default they run on a
// bounded background pool instead of the observing goroutine: ObserveBatch
// snapshots the completed-period prefix, hands it to a trainer, and
// returns; the object's previous predictor (if any) keeps answering
// queries until the freshly trained one is swapped in under the object's
// lock. Incremental Extends are cheap and stay synchronous. Flush drains
// pending trains (tests, checkpoints); Close drains and stops scheduling.
type Store struct {
	opts Options

	// workers is runtime.GOMAXPROCS(0) when the store was built: the one
	// width of everything the store fans out — concurrent trains across
	// objects (trainSem), and segment writes and loads, WAL replay and the
	// index rebuild across shards. A single train under it is serial.
	workers int

	// The training policy constants as fields, so tests can shorten the
	// backoff or drop the retries after New and before the first observe.
	maxRetries     int
	retryBackoff   time.Duration
	driftMinScores int

	// The object table is sharded: FNV-1a over the id picks one of
	// numShards sub-maps, each with its own RWMutex, so lookups and
	// inserts for distinct objects never contend on a single lock.
	// Fleet-wide walks (Objects, Health, recovery) visit shards one at a
	// time in index order.
	shards [numShards]shard

	// Background-training machinery. pending counts scheduled trains not
	// yet swapped in; trainCond broadcasts when it reaches zero; trainSem
	// bounds concurrent trains to workers. Failed train attempts land in a
	// fixed-size ring — errStart/errCount index it, errTotal counts every
	// failure ever — drained by Flush/Close and summarized (without
	// draining) by Health.
	trainMu   sync.Mutex
	trainCond *sync.Cond
	pending   int
	closed    bool
	errRing   [trainErrRingCap]error
	errStart  int
	errCount  int
	errTotal  uint64
	trainSem  chan struct{}

	// Durability (set by Open, nil/zero otherwise): the write-ahead log
	// every ObserveBatch appends to before acknowledging, the directory
	// holding it and the snapshot, and what startup recovery found.
	wal          *wal
	dir          string
	restored     bool // a snapshot was loaded at Open
	replayed     int  // WAL records replayed at Open
	openInfo     *OpenInfo
	checkpointMu sync.Mutex

	// Snapshot state, guarded by checkpointMu: the manifest describing
	// the segment files on disk.
	manifest *snapManifest

	// snapGate orders in-flight observe applies against checkpoints. Every
	// observe path holds the read side from before its WAL commit until
	// its track apply and dirty mark are done; a checkpoint takes the
	// write side once — releasing it immediately — after rotating the WAL
	// and before collecting the dirty set. That barrier guarantees any
	// record committed to a rotated-away (about to be reclaimed) segment
	// is applied and dirty-marked before the shards are encoded; without
	// it, a record could be durable only in a reclaimed segment while its
	// in-memory apply raced past the shard encode — acknowledged, then
	// lost on the next crash.
	snapGate sync.RWMutex

	// Checkpoint accounting for Health, FleetStats and /metrics:
	// completed checkpoints, cumulative checkpoint wall-clock, objects
	// encoded into rewritten segments, the current on-disk snapshot
	// footprint (manifest plus live segments), and the last checkpoint's
	// summary.
	checkpoints     atomic.Uint64
	checkpointNanos atomic.Uint64
	checkpointObjs  atomic.Uint64
	snapshotBytes   atomic.Uint64
	lastCheckpoint  atomic.Pointer[CheckpointInfo]

	// Degradation state machine (store/degrade.go): state is one of
	// stateHealthy/stateDegraded/stateRecovering, syncFails counts
	// consecutive WAL fsync failures toward Options.DegradeAfter, and the
	// counters feed Health and /metrics. stop (created by New, closed by
	// the first Close) ends the recovery probe goroutine.
	state      atomic.Int32
	syncFails  atomic.Int64
	walErrors  atomic.Uint64
	degrades   atomic.Uint64
	recoveries atomic.Uint64
	degradeMu  sync.Mutex // guards lastWALErr and stopped
	lastWALErr error
	stopped    bool // Close ran; no new probe goroutines may start
	stop       chan struct{}
	probeWG    sync.WaitGroup

	// driftSuppressed counts drift retrains the trainer-saturation valve
	// skipped (trainBacklogPerWorker), for FleetStats and /metrics.
	driftSuppressed atomic.Uint64

	// driftRetrains counts retrains triggered fleet-wide by the drift
	// EWMA (Options.DriftThreshold), for FleetStats and /metrics.
	driftRetrains atomic.Uint64

	// Model-update telemetry for FleetStats and /metrics: how many full
	// trains and incremental extends ran (every train attempt counts),
	// and the cumulative wall-clock nanoseconds each path consumed.
	trains      atomic.Uint64
	trainNanos  atomic.Uint64
	extends     atomic.Uint64
	extendNanos atomic.Uint64

	// faults, when set, is consulted at durability and training fault
	// points so tests can inject deterministic failures.
	faults atomic.Pointer[faultinject.Hook]

	// beforeTrain, when set, runs on the trainer goroutine right before
	// the model is trained. Test hook: lets tests hold a train in flight
	// and observe the store mid-retrain. Set it before any trains start.
	beforeTrain func()

	// index is the fleet-wide grid over predicted positions (nil unless
	// Options.FleetIndex is set). Entries are refreshed under each
	// object's write lock; queries take only the index's internal stripe
	// read locks, never an object or shard lock.
	index *spatial.Index
}

// shard is one slice of the object table: a sub-map under its own lock.
// dirty marks that some object in the shard changed — observe, model
// update, remove, WAL replay — since the last checkpoint encoded it; the
// next incremental checkpoint rewrites only dirty shards' segments.
type shard struct {
	mu      sync.RWMutex
	objects map[string]*object
	dirty   atomic.Bool
}

// object is one tracked object's state. mu is a read-write lock: queries
// (Predict, PredictRange, PredictBatch, Now, Stats) share a read lock —
// the predictor's query path is lock-free internally, so any number run in
// parallel — while Observe, model swaps and Extends take the write lock.
//
// Writers additionally serialize on ingestMu, held across the whole
// observe — offset capture, WAL group commit, track apply — so per-object
// WAL records stay ordered like the track. mu itself is only taken for
// the in-memory apply: a slow fsync stalls at most that object's other
// writers, never its readers. Lock order is always ingestMu before mu;
// mutating track requires both, reading it requires either.
type object struct {
	ingestMu  sync.Mutex
	mu        sync.RWMutex
	track     []hpm.Point
	predictor *hpm.Predictor
	// base is the absolute timestamp of track[0]. It stays 0 until the
	// retention policy (Config.RetainPeriods) trims the track's head;
	// from then on every externally visible timestamp — WAL offsets,
	// query windows, eval scoring, Now — is base + track index. Trims
	// keep base period-aligned so training windows stay in phase.
	base int
	// modeled is how many leading periods of track the predictor has seen
	// (via Train or Extend).
	modeled int
	// sinceRetrain counts periods absorbed since the last full train.
	sinceRetrain int
	// training marks an in-flight background (re)train; further model
	// updates are deferred until the trained predictor is swapped in.
	training bool
	// queries accumulates the query counters of predictors retired by full
	// retrains, so per-object query-path stats survive model swaps. The
	// live predictor's counters are added on read.
	queries hpm.QueryStats
	// lastTrainErr is the most recent train failure, cleared when a train
	// succeeds; trainFails counts failed attempts over the object's life.
	lastTrainErr error
	trainFails   int
	// eval scores this object's served predictions against later
	// observations (nil when Options.EvalDisabled). It has its own lock:
	// queries record into it under obj.mu's read lock.
	eval *evalq.Tracker
	// driftRetrains counts retrains triggered by the drift EWMA.
	driftRetrains int
	// Cumulative incremental-update counters across the object's Extends,
	// surfaced by Stats.
	unmatchedPts    int
	retiredPatterns int
	mintedRegions   int
	// removed marks an object deleted by Remove. Written with ingestMu and
	// mu both held, so either lock suffices to read it. An observer that
	// raced Remove and still holds this pointer must drop it and re-create
	// through the shard map, or its WAL records would land after the
	// tombstone and corrupt replay; a background train that outlives its
	// object must leave the fleet index alone (the id may have a
	// successor).
	removed bool
	// id is the object's key in the shard map, carried here so paths
	// without the id at hand (background train swaps, index refreshes)
	// can address the fleet index. Immutable after creation.
	id string
	// idxEntries and idxTqs are reusable scratch for the fleet-index
	// refresh, touched only under mu's write lock.
	idxEntries []spatial.Entry
	idxTqs     []int
	// idxLast/idxVel are the inputs of the last index refresh and
	// idxClean marks them valid: while untrained, entries are a pure
	// function of (last point, velocity), so a refresh with identical
	// inputs is skipped before any entry is built — the common case for
	// parked objects and duplicate position pings. Guarded by mu.
	idxLast  hpm.Point
	idxVel   hpm.Point
	idxClean bool
}

// New returns an empty store. Config.Period must be positive.
func New(opts Options) (*Store, error) {
	if opts.Config.Period <= 0 {
		return nil, errors.New("store: Options.Config.Period must be positive")
	}
	s := &Store{
		opts:           opts.withDefaults(),
		workers:        runtime.GOMAXPROCS(0),
		maxRetries:     DefaultTrainMaxRetries,
		retryBackoff:   DefaultTrainRetryBackoff,
		driftMinScores: DefaultDriftMinScores,
	}
	for i := range s.shards {
		s.shards[i].objects = map[string]*object{}
	}
	s.trainCond = sync.NewCond(&s.trainMu)
	s.trainSem = make(chan struct{}, s.workers)
	s.stop = make(chan struct{})
	if err := s.initFleetIndex(); err != nil {
		return nil, err
	}
	return s, nil
}

// Period returns the configured pattern period.
func (s *Store) Period() int { return s.opts.Config.Period }

// shard picks the object's shard by FNV-1a over its id. Inlined rather
// than hash/fnv to keep the hot ingest path free of a hasher allocation.
func (s *Store) shard(id string) *shard {
	return &s.shards[shardIndex(id)]
}

// shardIndex is shard as an index, for paths that partition work by shard
// (segment loads, sharded WAL replay).
func shardIndex(id string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= 16777619
	}
	return h & (numShards - 1)
}

// markDirty flags id's shard as changed since the last checkpoint. The
// load-before-store keeps the hot path from bouncing the flag's cache
// line when the shard is already dirty (the common case between
// checkpoints).
func (s *Store) markDirty(id string) {
	sh := s.shard(id)
	if !sh.dirty.Load() {
		sh.dirty.Store(true)
	}
}

// newObject allocates an object's state under the store's options.
func (s *Store) newObject(id string) *object {
	obj := &object{id: id}
	if !s.opts.EvalDisabled {
		obj.eval = evalq.New(s.opts.Eval)
	}
	return obj
}

// get returns the object's state, creating it when create is set.
func (s *Store) get(id string, create bool) (*object, error) {
	sh := s.shard(id)
	sh.mu.RLock()
	obj := sh.objects[id]
	sh.mu.RUnlock()
	if obj != nil {
		return obj, nil
	}
	if !create {
		return nil, fmt.Errorf("%w: %q", ErrUnknownObject, id)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if obj = sh.objects[id]; obj == nil {
		obj = s.newObject(id)
		sh.objects[id] = obj
	}
	return obj, nil
}

// Observe appends the object's location at its next timestamp (locations
// arrive in order, one per tick). Crossing a period boundary may trigger a
// model update: incremental extends run inline, while the first train and
// periodic retrains are handed to the background pool (unless
// SynchronousTraining is set) — use Flush to wait for them.
func (s *Store) Observe(id string, loc hpm.Point) error {
	return s.ObserveBatch(id, []hpm.Point{loc})
}

// ObserveBatch appends consecutive locations in one call: a one-object
// ObserveAll, with the same durability contract.
func (s *Store) ObserveBatch(id string, locs []hpm.Point) error {
	return s.ObserveBatchContext(context.Background(), id, locs)
}

// Observation is one object's consecutive locations within a fleet batch.
type Observation struct {
	ID     string
	Points []hpm.Point
}

// ObserveAll ingests observations for many objects in one call. On a
// durable store the whole batch is staged into a single WAL group commit —
// one write, one fsync, no matter how many objects it spans — and a nil
// return means every observation is on disk (in sync mode). Repeated ids
// are merged in order. Model-update errors (synchronous training) are
// joined and returned after every point has been applied; the points
// themselves are durable and acknowledged even then.
func (s *Store) ObserveAll(batch []Observation) error {
	return s.ObserveAllContext(context.Background(), batch)
}

// ObserveAllContext is ObserveAll with request-scoped cancellation, honored
// only up to the WAL commit (see ctx.go). It is the store's one observe
// path: WAL commit (the acknowledgment barrier), track append and Markov
// fold, prequential scoring, update policy, index refresh.
func (s *Store) ObserveAllContext(ctx context.Context, batch []Observation) error {
	// Validate, and merge repeated ids keeping each object's points in
	// argument order. A one-element batch needs neither map nor sort.
	var index map[string]int
	if len(batch) > 1 {
		index = make(map[string]int, len(batch))
	}
	groups := make([]fleetGroup, 0, len(batch))
	for _, ob := range batch {
		for _, p := range ob.Points {
			if !isFinite(p) {
				return fmt.Errorf("%w: %q (%v, %v)", ErrInvalidPoint, ob.ID, p.X, p.Y)
			}
		}
		if len(ob.Points) == 0 {
			continue
		}
		if i, ok := index[ob.ID]; ok {
			g := &groups[i]
			if !g.owned {
				// Copy before extending: the first slice still aliases the
				// caller's backing array.
				g.pts = append(make([]hpm.Point, 0, len(g.pts)+len(ob.Points)), g.pts...)
				g.owned = true
			}
			g.pts = append(g.pts, ob.Points...)
			continue
		}
		if index != nil {
			index[ob.ID] = len(groups)
		}
		groups = append(groups, fleetGroup{id: ob.ID, pts: ob.Points})
	}
	if len(groups) == 0 {
		return nil
	}
	if err := s.writable(); err != nil {
		return err // degraded: fail fast before touching any lock
	}
	// Lock the objects' ingest mutexes in sorted-id order: concurrent
	// batches acquire in the same order, so they cannot deadlock. An object
	// tombstoned by a concurrent Remove between lookup and lock must be
	// re-created through the shard map — its WAL records would land after
	// the tombstone with stale offsets — so the whole acquire phase retries.
	if len(groups) > 1 {
		sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	}
	unlock := func() {
		for i := range groups {
			groups[i].obj.ingestMu.Unlock()
		}
	}
acquire:
	for {
		for i := range groups {
			obj, err := s.get(groups[i].id, true)
			if err != nil {
				return err
			}
			groups[i].obj = obj
		}
		for i := range groups {
			groups[i].obj.ingestMu.Lock()
		}
		for i := range groups {
			if groups[i].obj.removed {
				unlock()
				continue acquire
			}
		}
		break
	}
	defer unlock()
	if err := ctx.Err(); err != nil {
		return err // canceled while acquiring locks: nothing staged yet
	}
	// The snapshot gate spans commit through apply + dirty mark, so a
	// checkpoint that rotated the WAL cannot collect the dirty set while a
	// record sits durable-but-unapplied in a segment it is about to
	// reclaim. Released before scoring and the model update: extends and
	// synchronous trains must not extend the checkpoint's barrier wait.
	s.snapGate.RLock()
	if s.wal != nil {
		// Track mutation requires ingestMu, so the offsets read here are
		// stable without obj.mu and stay the track lengths until the apply.
		recs := make([]walRecord, len(groups))
		for i, g := range groups {
			recs[i] = walRecord{id: g.id, offset: g.obj.base + len(g.obj.track), pts: g.pts}
		}
		if err := s.walAppendAll(recs); err != nil {
			s.snapGate.RUnlock()
			return err // nothing acknowledged: no track was touched
		}
	}
	for i := range groups {
		g := &groups[i]
		g.obj.mu.Lock()
		g.at = s.appendLocked(g.obj, g.pts)
		g.obj.mu.Unlock()
	}
	s.snapGate.RUnlock()
	var errs []error
	for i := range groups {
		g := &groups[i]
		g.obj.mu.Lock()
		if g.obj.eval != nil {
			s.scoreLocked(g.obj, g.at, g.pts)
		}
		if err := s.maybeUpdate(g.obj); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", g.id, err))
		}
		s.indexUpdateLocked(g.obj)
		g.obj.mu.Unlock()
	}
	return errors.Join(errs...)
}

// appendLocked is the one step that grows a track: append, dirty mark and
// Markov fold, returning the timestamp of pts[0]. All under one hold of
// obj.mu, because a model swap re-folds the chain from the whole track
// (installLocked): a swap landing between an append and a later fold would
// already count the points, and the fold would count them again. Called
// with obj.ingestMu and obj.mu held.
func (s *Store) appendLocked(obj *object, pts []hpm.Point) int {
	at := obj.base + len(obj.track)
	obj.track = append(obj.track, pts...)
	s.markDirty(obj.id)
	if obj.predictor != nil {
		for i, p := range pts {
			obj.predictor.MarkovObserve(at+i, p)
		}
	}
	return at
}

// fleetGroup is one object's slice of an observe batch.
type fleetGroup struct {
	id    string
	pts   []hpm.Point
	obj   *object
	at    int  // timestamp of pts[0], set by the apply
	owned bool // pts is our own copy, safe to append to
}

func isFinite(p hpm.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// SetFaultHook installs (or, with nil, clears) a fault-injection hook
// consulted at the store's training and durability fault points — see
// internal/faultinject. Intended for tests; safe to swap at runtime.
func (s *Store) SetFaultHook(h faultinject.Hook) {
	if h == nil {
		s.faults.Store(nil)
		return
	}
	s.faults.Store(&h)
}

// fault consults the injection hook; a nil hook always allows.
func (s *Store) fault(op faultinject.Op) error {
	if h := s.faults.Load(); h != nil {
		return (*h)(op)
	}
	return nil
}

// maybeUpdate is the store's one model-update policy: first train once
// MinTrainPeriods have completed, then absorb every newly completed period
// through the model's incremental Extend, with a full rebuild every
// RetrainEvery periods (0 = never). Called with obj.mu held.
func (s *Store) maybeUpdate(obj *object) error {
	if obj.training {
		// A background (re)train is in flight; it re-runs this check
		// after the swap to absorb periods completed meanwhile.
		return nil
	}
	period := s.opts.Config.Period
	completed := (obj.base + len(obj.track)) / period
	if obj.predictor == nil {
		if completed < s.opts.MinTrainPeriods {
			return nil
		}
		return s.startTrain(obj, completed)
	}
	newPeriods := completed - obj.modeled
	if newPeriods <= 0 {
		return nil
	}
	if s.opts.RetrainEvery > 0 && obj.sinceRetrain+newPeriods >= s.opts.RetrainEvery {
		return s.startTrain(obj, completed)
	}
	start := time.Now()
	res, err := obj.predictor.Extend(obj.track[obj.modeled*period-obj.base : completed*period-obj.base])
	s.extendNanos.Add(uint64(time.Since(start)))
	s.extends.Add(1)
	if err != nil {
		return fmt.Errorf("store: extend: %w", err)
	}
	obj.unmatchedPts += res.UnmatchedPoints
	obj.retiredPatterns += res.RetiredPatterns
	obj.mintedRegions += res.NewRegions
	obj.sinceRetrain += newPeriods
	obj.modeled = completed
	s.trimLocked(obj)
	// The model (and possibly the trimmed track) changed without an
	// observe in this call path (recovery catch-up, post-train catch-up):
	// the shard's segment must be rewritten at the next checkpoint.
	s.markDirty(obj.id)
	// A minted region re-partitions space, so visits folded into the chain
	// under the old region set are stale: re-fold the retained track. When
	// no region was minted the incremental folds are already exact and the
	// extend stays O(new data).
	if res.NewRegions > 0 {
		obj.predictor.Model().RebuildMarkov(obj.base, obj.track)
	}
	return nil
}

// trimLocked drops track head the retention policy no longer needs. The
// cut stays period-aligned (training windows keep phase), never passes the
// modeled boundary (unmodeled points must survive to be trained), and
// keeps at least MaxRecent points for query windows. The tail is copied to
// a fresh slice so the old backing array is actually freed. Called with
// obj.mu held.
func (s *Store) trimLocked(obj *object) {
	w := s.opts.Config.RetainPeriods
	if w <= 0 {
		return
	}
	period := s.opts.Config.Period
	cut := ((obj.base+len(obj.track))/period - w) * period
	if m := obj.modeled * period; cut > m {
		cut = m
	}
	if r := obj.base + len(obj.track) - s.opts.MaxRecent; cut > r {
		cut = r
	}
	cut -= cut % period
	if cut <= obj.base {
		return
	}
	obj.track = append([]hpm.Point(nil), obj.track[cut-obj.base:]...)
	obj.base = cut
}

// startTrain fully (re)trains obj over its first completed periods: on the
// background pool, or under SynchronousTraining inline and without retries
// (the caller gets the error directly). Called with obj.mu held.
func (s *Store) startTrain(obj *object, completed int) error {
	if !s.opts.SynchronousTraining {
		s.scheduleTrain(obj, completed)
		return nil
	}
	p, err := s.trainGuarded(obj.track[:completed*s.opts.Config.Period-obj.base])
	if err != nil {
		err = fmt.Errorf("store: train: %w", err)
		obj.trainFails++
		obj.lastTrainErr = err
		return err
	}
	s.installLocked(obj, p, completed)
	return nil
}

// trainGuarded trains a predictor off pts under the worker semaphore,
// converting panics into errors: one poisoned track must never take down
// the whole fleet's process.
func (s *Store) trainGuarded(pts []hpm.Point) (p *hpm.Predictor, err error) {
	s.trainSem <- struct{}{}
	defer func() { <-s.trainSem }()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if hook := s.beforeTrain; hook != nil {
		hook()
	}
	if err := s.fault(faultinject.OpTrain); err != nil {
		return nil, err
	}
	start := time.Now()
	p, err = hpm.TrainPoints(pts, s.opts.Config)
	s.trainNanos.Add(uint64(time.Since(start)))
	s.trains.Add(1)
	return p, err
}

// installLocked puts a freshly trained predictor in service, for inline and
// background trains alike: it banks the retired predictor's query counters
// so per-object stats survive the swap, trims, marks the shard dirty and
// re-folds the Markov chain from the retained track — the fresh model
// folded its chain in the training prefix's time basis, not the absolute
// clock every later MarkovObserve uses. Called with obj.mu write-locked.
func (s *Store) installLocked(obj *object, p *hpm.Predictor, completed int) {
	if obj.predictor != nil {
		obj.queries = obj.queries.Add(obj.predictor.QueryStats())
	}
	obj.predictor = p
	obj.modeled = completed
	obj.sinceRetrain = 0
	obj.lastTrainErr = nil
	s.trimLocked(obj)
	s.markDirty(obj.id)
	p.Model().RebuildMarkov(obj.base, obj.track)
}

// scheduleTrain snapshots the completed-period prefix and hands it to a
// background trainer. No-op when a train for obj is already in flight
// (later periods are absorbed by the post-swap catch-up) or the store is
// closed. Called with obj.mu held.
func (s *Store) scheduleTrain(obj *object, completed int) {
	s.trainMu.Lock()
	if s.closed {
		s.trainMu.Unlock()
		return
	}
	s.pending++
	s.trainMu.Unlock()
	obj.training = true
	// Snapshot: the track keeps growing under obj.mu while the trainer
	// runs, so the trainer must own its input.
	pts := append([]hpm.Point(nil), obj.track[:completed*s.opts.Config.Period-obj.base]...)
	go s.runTrain(obj, pts, completed)
}

// runTrain is the background trainer: it trains a fresh predictor off the
// snapshot without holding any lock, swaps it in under obj.mu, and re-runs
// the update policy to catch up on periods completed during training.
// Failures — including panics, which trainGuarded converts — are retried
// with exponential backoff up to DefaultTrainMaxRetries; each attempt's
// error lands in the bounded ring and on the object's Stats. A train that
// exhausts its retries leaves the object serving its previous predictor,
// and the next completed period schedules a fresh train.
func (s *Store) runTrain(obj *object, pts []hpm.Point, completed int) {
	backoff := s.retryBackoff
	var p *hpm.Predictor
	var err error
	for attempt := 0; ; attempt++ {
		p, err = s.trainGuarded(pts)
		if err == nil {
			break
		}
		err = fmt.Errorf("store: train (attempt %d): %w", attempt+1, err)
		s.recordTrainErr(err)
		obj.mu.Lock()
		obj.trainFails++
		obj.lastTrainErr = err
		obj.mu.Unlock()
		if attempt >= s.maxRetries {
			break
		}
		time.Sleep(backoff)
		if backoff < maxTrainBackoff {
			backoff *= 2
		}
	}

	obj.mu.Lock()
	obj.training = false
	if err == nil {
		s.installLocked(obj, p, completed)
		// Catch up: extend (or re-schedule a retrain) over periods that
		// completed while this train was running.
		if uerr := s.maybeUpdate(obj); uerr != nil {
			s.recordTrainErr(uerr)
		}
		// The swap changed what the model predicts: re-bin the object's
		// fleet-index entries against the fresh predictor.
		s.indexUpdateLocked(obj)
	}
	obj.mu.Unlock()

	s.trainMu.Lock()
	s.pending--
	if s.pending == 0 {
		s.trainCond.Broadcast()
	}
	s.trainMu.Unlock()
}

// recordTrainErr pushes one failure into the bounded ring, evicting the
// oldest entry when full. The all-time counter never resets.
func (s *Store) recordTrainErr(err error) {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	s.errTotal++
	if s.errCount < trainErrRingCap {
		s.errRing[(s.errStart+s.errCount)%trainErrRingCap] = err
		s.errCount++
		return
	}
	s.errRing[s.errStart] = err
	s.errStart = (s.errStart + 1) % trainErrRingCap
}

// trainErrsLocked returns the ring's contents oldest-first. Caller holds
// trainMu.
func (s *Store) trainErrsLocked() []error {
	errs := make([]error, 0, s.errCount)
	for i := 0; i < s.errCount; i++ {
		errs = append(errs, s.errRing[(s.errStart+i)%trainErrRingCap])
	}
	return errs
}

// Flush blocks until no background trains are pending — including any
// catch-up trains they schedule and retry backoffs in progress — and
// returns the failures accumulated since the last Flush (nil when training
// succeeded or nothing was pending; a retried-then-successful train still
// reports its failed attempts). After Flush, every Observe made before the
// call is reflected in the objects' models.
func (s *Store) Flush() error {
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	for s.pending > 0 {
		s.trainCond.Wait()
	}
	err := errors.Join(s.trainErrsLocked()...)
	s.errStart, s.errCount = 0, 0
	for i := range s.errRing {
		s.errRing[i] = nil
	}
	return err
}

// Close drains pending background trains and stops scheduling new ones.
// A durable store additionally writes a final checkpoint and releases its
// WAL. Observations and queries still work after Close on an in-memory
// store, but models are no longer retrained. Returns any accumulated
// training errors joined with checkpoint errors.
func (s *Store) Close() error {
	s.trainMu.Lock()
	wasClosed := s.closed
	s.closed = true
	s.trainMu.Unlock()
	if !wasClosed {
		s.degradeMu.Lock()
		s.stopped = true // no new probe goroutine may start from here on
		s.degradeMu.Unlock()
		close(s.stop) // ends the recovery probe, if one is running
	}
	// Wait the probe out before touching the WAL below: a recovery in
	// flight reopens segments this Close is about to close.
	s.probeWG.Wait()
	err := s.Flush()
	if s.wal != nil {
		if s.state.Load() == stateHealthy {
			err = errors.Join(err, s.checkpoint(false))
		} else {
			// Degraded: the disk is refusing writes, so don't wedge
			// shutdown on a snapshot that cannot land. Every acknowledged
			// record is already in a WAL segment; the next Open replays
			// them (the torn tail of the broken segment is repaired by the
			// tolerant final-segment replay).
			err = errors.Join(err, fmt.Errorf("store: close without checkpoint: %w", ErrDegraded))
		}
		err = errors.Join(err, s.wal.close())
	}
	return err
}

// Predict estimates the object's location at absolute time tq (timestamps
// count observations from zero) from its most recent movements. Queries
// run under the object's read lock: any number execute in parallel with
// each other, serializing only against writes (Observe, model swaps).
func (s *Store) Predict(id string, tq, k int) ([]hpm.Prediction, error) {
	return s.PredictContext(context.Background(), id, tq, k)
}

// PredictContext is Predict with request-scoped cancellation: a client
// that disconnected or blew its deadline before the query starts — or
// while waiting for the object's lock behind a model swap — gets the
// context's error instead of an answer nobody reads.
func (s *Store) PredictContext(ctx context.Context, id string, tq, k int) (preds []hpm.Prediction, err error) {
	err = s.withRecent(ctx, id, func(obj *object, recent []hpm.TimedPoint, now int) error {
		preds, err = s.predictLocked(obj, s.routePath(obj, now, tq), recent, now, tq, k)
		return err
	})
	return preds, err
}

// PredictAheadContext estimates the object's location horizon timestamps
// after its latest observation and returns the absolute query time it
// answered for. The current time is read and the query answered under one
// hold of the object's read lock, so — unlike Now followed by Predict,
// which ingest can overtake between the two calls — a positive horizon
// never fails as "not after current time".
func (s *Store) PredictAheadContext(ctx context.Context, id string, horizon, k int) (tq int, preds []hpm.Prediction, err error) {
	if err := validateFleetQuery(horizon); err != nil {
		return 0, nil, err
	}
	err = s.withRecent(ctx, id, func(obj *object, recent []hpm.TimedPoint, now int) error {
		tq = now + horizon
		preds, err = s.predictLocked(obj, s.routePath(obj, now, tq), recent, now, tq, k)
		return err
	})
	return tq, preds, err
}

// withRecent runs fn under the object's read lock with the object's recent
// window and current time — the one snapshot everything a query derives
// from must share.
func (s *Store) withRecent(ctx context.Context, id string, fn func(obj *object, recent []hpm.TimedPoint, now int) error) error {
	obj, err := s.get(id, false)
	if err != nil {
		return err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	recent, err := s.recentLocked(obj)
	if err != nil {
		return err
	}
	return fn(obj, recent, obj.base+len(obj.track)-1)
}

// predictLocked answers one point query along route and parks the answer
// under it (fall-throughs included), so the routing measurements keep
// charging the chosen route for what it actually delivered. Called with
// obj.mu read-locked.
func (s *Store) predictLocked(obj *object, route evalq.Path, recent []hpm.TimedPoint, now, tq, k int) ([]hpm.Prediction, error) {
	preds, err := obj.predictor.PredictVia(route, recent, tq, k)
	s.recordPrediction(obj, now, tq, route, preds, err)
	return preds, err
}

// PredictRange estimates the object's locations over [from, to].
func (s *Store) PredictRange(id string, from, to int) ([]hpm.Prediction, error) {
	return s.PredictRangeContext(context.Background(), id, from, to)
}

// PredictRangeContext is PredictRange with request-scoped cancellation.
func (s *Store) PredictRangeContext(ctx context.Context, id string, from, to int) (preds []hpm.Prediction, err error) {
	err = s.withRecent(ctx, id, func(obj *object, recent []hpm.TimedPoint, _ int) error {
		preds, err = obj.predictor.PredictRange(recent, from, to)
		return err
	})
	return preds, err
}

// PredictBatch estimates the object's location at each absolute time in
// tqs, returning up to k ranked predictions per time in input order. The
// whole batch runs against one consistent snapshot of the object's recent
// movements and shares a single premise encoding and at most one motion-
// function fit, so it is substantially cheaper than len(tqs) Predict
// calls. Times nothing can answer yield a nil entry.
func (s *Store) PredictBatch(id string, tqs []int, k int) ([][]hpm.Prediction, error) {
	return s.PredictBatchContext(context.Background(), id, tqs, k)
}

// PredictBatchContext is PredictBatch with request-scoped cancellation.
func (s *Store) PredictBatchContext(ctx context.Context, id string, tqs []int, k int) (out [][]hpm.Prediction, err error) {
	err = s.withRecent(ctx, id, func(obj *object, recent []hpm.TimedPoint, now int) error {
		out, err = s.predictBatchLocked(obj, recent, now, tqs, k)
		return err
	})
	return out, err
}

// PredictBatchAheadContext is PredictBatchContext at horizons relative to
// the object's latest observation, resolved under the same lock hold that
// answers them (see PredictAheadContext). It returns the absolute query
// times, aligned with the predictions.
func (s *Store) PredictBatchAheadContext(ctx context.Context, id string, horizons []int, k int) (tqs []int, out [][]hpm.Prediction, err error) {
	for _, h := range horizons {
		if err := validateFleetQuery(h); err != nil {
			return nil, nil, err
		}
	}
	err = s.withRecent(ctx, id, func(obj *object, recent []hpm.TimedPoint, now int) error {
		tqs = make([]int, len(horizons))
		for i, h := range horizons {
			tqs[i] = now + h
		}
		out, err = s.predictBatchLocked(obj, recent, now, tqs, k)
		return err
	})
	return tqs, out, err
}

// predictBatchLocked answers a batch from one recent window and parks each
// answer with the evaluator. Called with obj.mu read-locked.
func (s *Store) predictBatchLocked(obj *object, recent []hpm.TimedPoint, now int, tqs []int, k int) ([][]hpm.Prediction, error) {
	out, err := obj.predictor.PredictBatch(recent, tqs, k)
	if err == nil && obj.eval != nil {
		for i, preds := range out {
			s.recordPrediction(obj, now, tqs[i], s.patternPath(obj, now, tqs[i]), preds, nil)
		}
	}
	return out, err
}

// recentLocked builds the query window from the tail of the track.
func (s *Store) recentLocked(obj *object) ([]hpm.TimedPoint, error) {
	if obj.predictor == nil {
		return nil, ErrUntrained
	}
	n := len(obj.track)
	w := s.opts.MaxRecent
	if w > n {
		w = n
	}
	recent := make([]hpm.TimedPoint, 0, w)
	for t := n - w; t < n; t++ {
		recent = append(recent, hpm.TimedPoint{T: obj.base + t, Loc: obj.track[t]})
	}
	return recent, nil
}

// Now returns the object's current time: the timestamp of its latest
// observation, or -1 when nothing was observed.
func (s *Store) Now(id string) (int, error) {
	obj, err := s.get(id, false)
	if err != nil {
		return 0, err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	return obj.base + len(obj.track) - 1, nil
}

// ObjectStats summarizes one tracked object.
type ObjectStats struct {
	ID         string
	Points     int  // observations ingested
	Periods    int  // completed periods
	Trained    bool // has a model
	Training   bool // a background (re)train is in flight
	Modeled    int  // periods the model has absorbed
	Regions    int
	Patterns   int
	IndexBytes int
	// TrainFailures counts failed train attempts over the object's life;
	// LastTrainError is the most recent one, cleared by a successful
	// train. A non-empty value with Trained=true means the object is
	// serving its previous model while retrains fail.
	TrainFailures  int
	LastTrainError string `json:",omitempty"`
	// DriftRetrains counts retrains the drift EWMA triggered early.
	DriftRetrains int
	// RetainedPoints is how many observations the track currently holds;
	// with a retention window it trails Points, whose count is absolute.
	RetainedPoints int
	// UnmatchedPoints, RetiredPatterns and MintedRegions accumulate the
	// incremental-update counters across the object's Extends: points no
	// frequent region matched, patterns demoted out of the index, and
	// regions minted from outlier buffers.
	UnmatchedPoints int
	RetiredPatterns int
	MintedRegions   int
	// Queries summarizes the object's query traffic by answering path.
	Queries hpm.QueryStats
}

// Stats returns the object's summary.
func (s *Store) Stats(id string) (ObjectStats, error) {
	obj, err := s.get(id, false)
	if err != nil {
		return ObjectStats{}, err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	st := ObjectStats{
		ID:              id,
		Points:          obj.base + len(obj.track),
		Periods:         (obj.base + len(obj.track)) / s.opts.Config.Period,
		Training:        obj.training,
		Modeled:         obj.modeled,
		TrainFailures:   obj.trainFails,
		DriftRetrains:   obj.driftRetrains,
		RetainedPoints:  len(obj.track),
		UnmatchedPoints: obj.unmatchedPts,
		RetiredPatterns: obj.retiredPatterns,
		MintedRegions:   obj.mintedRegions,
		Queries:         obj.queries,
	}
	if obj.lastTrainErr != nil {
		st.LastTrainError = obj.lastTrainErr.Error()
	}
	if obj.predictor != nil {
		st.Trained = true
		st.Regions = obj.predictor.NumRegions()
		st.Patterns = obj.predictor.NumPatterns()
		st.IndexBytes = obj.predictor.IndexBytes()
		st.Queries = st.Queries.Add(obj.predictor.QueryStats())
	}
	return st, nil
}

// Health summarizes the store's fitness to serve, for readiness probes.
type Health struct {
	Objects       int  `json:"objects"`
	PendingTrains int  `json:"pendingTrains"`
	Closed        bool `json:"closed"`
	// Durable reports whether a WAL is attached; SnapshotRestored and
	// WALReplayed describe what startup recovery found.
	Durable          bool `json:"durable"`
	SnapshotRestored bool `json:"snapshotRestored"`
	WALReplayed      int  `json:"walReplayed"`
	// State is the degradation state machine's position ("healthy",
	// "degraded", "recovering"); Degraded is true whenever writes are
	// being refused. WALErrors counts failed WAL group commits over the
	// process life, LastWALError is the most recent one, and Degrades/
	// Recoveries count completed transitions. See store/degrade.go.
	State        string `json:"state"`
	Degraded     bool   `json:"degraded"`
	WALErrors    uint64 `json:"walErrors"`
	LastWALError string `json:"lastWALError,omitempty"`
	Degrades     uint64 `json:"degrades"`
	Recoveries   uint64 `json:"recoveries"`
	// TrainFailures counts every failed train attempt since the process
	// started; RecentTrainErrors is the bounded ring's current contents
	// (oldest first, cleared by Flush).
	TrainFailures     uint64   `json:"trainFailures"`
	RecentTrainErrors []string `json:"recentTrainErrors,omitempty"`
	// Checkpoints counts completed checkpoints since Open, SnapshotBytes
	// is the current on-disk snapshot footprint (manifest plus live
	// segments), and LastCheckpoint summarizes the most recent one.
	Checkpoints    uint64          `json:"checkpoints"`
	SnapshotBytes  uint64          `json:"snapshotBytes"`
	LastCheckpoint *CheckpointInfo `json:"lastCheckpoint,omitempty"`
	// Open says where the wall time of Open went; nil for a store that
	// was not opened from a directory.
	Open *OpenInfo `json:"open,omitempty"`
}

// OpenInfo is the wall time of each phase of Open, in the order they run,
// so "why was this start slow?" has an answer in the running process.
type OpenInfo struct {
	// LoadSeconds covers the snapshot: manifest, segment decode and, for
	// each of its Models trained objects, laying the pattern index out
	// from its saved shape.
	LoadSeconds float64 `json:"loadSeconds"`
	Models      int     `json:"models"`
	// ReplaySeconds covers reading the WAL tail and applying it;
	// ReplayExtends is how many replayed records carried their object over
	// a period boundary and so ran an Extend.
	ReplaySeconds float64 `json:"replaySeconds"`
	ReplayExtends uint64  `json:"replayExtends"`
	// RecoverSeconds covers re-running the update policy over every
	// object (recoverModels), IndexSeconds the fleet-index rebuild.
	RecoverSeconds float64 `json:"recoverSeconds"`
	IndexSeconds   float64 `json:"indexSeconds"`
}

// CheckpointInfo summarizes one completed checkpoint for Health.
type CheckpointInfo struct {
	When    time.Time `json:"when"`
	Seconds float64   `json:"seconds"`
	// Objects and Shards count what this checkpoint actually encoded: an
	// incremental checkpoint rewrites only dirty shards' segments, so
	// both stay near zero on a quiet fleet.
	Objects int `json:"objects"`
	Shards  int `json:"shards"`
	// Full marks the first checkpoint of a fresh directory, which has no
	// manifest to chain clean shards from (a checkpoint after Open over a
	// manifest is incremental); Epoch is the snapshot epoch the checkpoint
	// committed.
	Full  bool   `json:"full"`
	Epoch uint64 `json:"epoch"`
}

// Health reports the store's current health without draining the train
// error ring.
func (s *Store) Health() Health {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	s.trainMu.Lock()
	defer s.trainMu.Unlock()
	h := Health{
		Objects:          n,
		PendingTrains:    s.pending,
		Closed:           s.closed,
		Durable:          s.wal != nil,
		SnapshotRestored: s.restored,
		WALReplayed:      s.replayed,
		TrainFailures:    s.errTotal,
		State:            s.State(),
		Degraded:         s.Degraded(),
		WALErrors:        s.walErrors.Load(),
		Degrades:         s.degrades.Load(),
		Recoveries:       s.recoveries.Load(),
		Checkpoints:      s.checkpoints.Load(),
		SnapshotBytes:    s.snapshotBytes.Load(),
		LastCheckpoint:   s.lastCheckpoint.Load(),
		Open:             s.openInfo,
	}
	if err := s.lastWALError(); err != nil {
		h.LastWALError = err.Error()
	}
	for _, err := range s.trainErrsLocked() {
		h.RecentTrainErrors = append(h.RecentTrainErrors, err.Error())
	}
	return h
}

// Objects lists all tracked ids, sorted. Shards are visited one at a
// time in index order; ids added or removed mid-walk may or may not
// appear, like any concurrent map listing.
func (s *Store) Objects() []string {
	var ids []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.objects {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// Remove forgets an object entirely. On a durable store the removal is
// acknowledged like an observation: a tombstone WAL record (zero points —
// a shape the observe paths never write) hits disk before the object
// leaves the table, so it stays gone across restarts even though older
// segments and the snapshot still mention it; the next checkpoint drops
// it from the snapshot too. Removing an unknown id is a no-op.
func (s *Store) Remove(id string) error {
	if err := s.writable(); err != nil {
		return err // degraded: the tombstone could not be made durable
	}
	obj, err := s.get(id, false)
	if err != nil {
		return nil // never observed (or already removed): nothing to do
	}
	obj.ingestMu.Lock()
	defer obj.ingestMu.Unlock()
	if obj.removed {
		return nil // lost a race with another Remove
	}
	// Tombstone commit and map delete ride the snapshot gate like observe
	// applies: a checkpoint reclaiming the tombstone's segment must see
	// the shard dirty and re-encode it without the object.
	s.snapGate.RLock()
	defer s.snapGate.RUnlock()
	if s.wal != nil {
		if err := s.walRemove(id); err != nil {
			return err // not acknowledged: the object stays
		}
	}
	obj.mu.Lock()
	obj.removed = true
	obj.mu.Unlock()
	sh := s.shard(id)
	sh.dirty.Store(true)
	sh.mu.Lock()
	// Guard against deleting a successor: a writer that raced this Remove
	// may already have re-created the id with a fresh object.
	if sh.objects[id] == obj {
		delete(sh.objects, id)
		// Drop the fleet-index entries inside the shard critical section:
		// any successor is created through this map after the delete, so
		// its index updates cannot be wiped by this removal.
		if s.index != nil {
			s.index.Remove(id)
		}
	}
	sh.mu.Unlock()
	return nil
}

// WALStats summarizes the write-ahead log's commit activity since Open:
// how many observation records were appended, how many group commits
// (file writes) carried them, and how many fsyncs were issued. On a
// non-durable store every field is zero. Batches < Records means group
// commit is coalescing concurrent writers; Fsyncs/Records is the
// per-observation fsync cost the batching amortizes.
type WALStats struct {
	Records uint64 `json:"records"`
	Batches uint64 `json:"batches"`
	Fsyncs  uint64 `json:"fsyncs"`
}

// WALStats reports the durable ingest counters; zero on in-memory stores.
func (s *Store) WALStats() WALStats {
	if s.wal == nil {
		return WALStats{}
	}
	r, b, f := s.wal.stats()
	return WALStats{Records: r, Batches: b, Fsyncs: f}
}

// Predictor returns the object's current predictor for advanced use
// (saving, inspection); nil when untrained. The returned predictor may be
// replaced by later retrains, so hold onto the pointer only briefly.
func (s *Store) Predictor(id string) (*hpm.Predictor, error) {
	obj, err := s.get(id, false)
	if err != nil {
		return nil, err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	return obj.predictor, nil
}
