// Package store manages Hybrid Prediction Models for a fleet of moving
// objects: it ingests location streams, trains a per-object model once
// enough periods accumulate, keeps that model current by extending it with
// every completed period, and answers predictive queries concurrently.
//
// The paper models a single object per model — patterns are personal
// habits, so a shared model would blur them. This package is the thin
// systems layer that makes the single-object core usable as a moving-
// objects database: one model per tracked object, safe for concurrent
// observes and predicts.
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
	"hpm/internal/parallel"
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
	// MaxRecent is the recent-movement window handed to queries. Values
	// <= 0 default to DefaultMaxRecent.
	MaxRecent int
	// WALNoSync skips the per-commit fsync of a durable store's
	// write-ahead log, trading the zero-acknowledged-loss crash guarantee
	// for ingest throughput (a crash may lose records the OS had not yet
	// flushed; replay still recovers everything older).
	WALNoSync bool
	// Eval tunes the online prequential evaluator: ring bound, hit
	// distance D, horizon buckets. Zero fields take the evalq defaults.
	// See internal/evalq.
	Eval evalq.Config
	// EvalDisabled turns the online evaluator off entirely: no prediction
	// is parked, no observation is scored, and the eval endpoints report
	// empty summaries.
	EvalDisabled bool
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
	// acknowledged observe and first-train install at each bucket a fleet
	// query has read since the store was built. Enables QueryRangeContext,
	// QueryNearestContext and the scan oracles. CellSize must be positive.
	FleetIndex *spatial.Config
}

// Defaults for Options fields left at their zero value.
const (
	DefaultMinTrainPeriods = 5
	DefaultMaxRecent       = 10
	DefaultDegradeAfter    = 3
	DefaultProbeInterval   = 500 * time.Millisecond
)

// numShards is how many independently locked sub-maps the object table is
// split across (a power of two: shard selection is a mask). It is part of
// the on-disk format — a snapshot segment is one shard's objects — so it is
// a constant, not an option.
const numShards = 64

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

// MaxHorizon bounds how far past an object's current time any query time may
// lie. The motion path iterates its recurrence once per tick of horizon,
// holding the object's read lock, with no deadline to interrupt it: a
// horizon of 10⁸ ticks pinned a core for eight seconds with the object's
// ingest queued behind it. 2²⁰ ticks is two years of minutes and costs a
// few tens of milliseconds.
const MaxHorizon = 1 << 20

// MaxRange bounds a trajectory query: PredictRangeContext answers at most
// MaxRange+1 timestamps, one prediction each.
const MaxRange = 10000

// ErrTooFar is returned by every predict call with a query time more than
// MaxHorizon past the object's current time. ErrRangeTooLarge is returned
// by PredictRangeContext for a range wider than MaxRange. Both are refused
// before any prediction work; their texts are what the HTTP service
// answers.
var (
	ErrTooFar        = fmt.Errorf("query time too far ahead: at most %d ticks past the object's current time", MaxHorizon)
	ErrRangeTooLarge = errors.New("range too large")
)

// checkHorizon refuses query times more than MaxHorizon past now.
func checkHorizon(now int, tqs ...int) error {
	for _, tq := range tqs {
		if tq > now+MaxHorizon {
			return ErrTooFar
		}
	}
	return nil
}

// Store tracks many objects. All methods are safe for concurrent use.
//
// An object is trained once, when MinTrainPeriods have completed, and only
// extended from then on, so its predictor is never replaced. Both run inside
// the observe that completes the period, so when it returns the model has
// seen every completed period. The train reads the track in place under the
// object's ingest lock only — readers keep answering, the object with
// ErrUntrained — and installs in one short hold of the write lock; a fleet
// batch runs its objects' trains across the workers.
type Store struct {
	opts Options

	// workers is runtime.GOMAXPROCS(0) when the store was built: the one
	// width of everything the store fans out — a fleet batch's first trains
	// and recovery across objects, segment writes and loads and WAL replay
	// across shards, and a fleet-index bucket's build across objects. A
	// single train under it is serial.
	workers int

	// The object table is sharded: FNV-1a over the id picks one of
	// numShards sub-maps, each with its own RWMutex, so lookups and
	// inserts for distinct objects never contend on a single lock.
	// Fleet-wide walks (Objects, Health, recovery) visit shards one at a
	// time in index order.
	shards [numShards]shard

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
	stopped    bool // Close ran; no new probe goroutine may start, readiness is off
	stop       chan struct{}
	probeWG    sync.WaitGroup

	// Model-update telemetry for FleetStats and /metrics: how many full
	// trains, incremental extends and miner seedings ran (every train
	// attempt counts), and the cumulative wall-clock nanoseconds of each.
	// trainFailures counts every failed train, and every Extend that failed
	// during recovery, since the process started.
	trains        atomic.Uint64
	trainNanos    atomic.Uint64
	extends       atomic.Uint64
	extendNanos   atomic.Uint64
	seeds         atomic.Uint64
	seedNanos     atomic.Uint64
	trainFailures atomic.Uint64
	// reused counts answers served from an object's memo (memo.go), one
	// per query time.
	reused atomic.Uint64

	// faults, when set, is consulted at durability and training fault
	// points so tests can inject deterministic failures.
	faults atomic.Pointer[faultinject.Hook]

	// index is the fleet-wide grid over predicted positions (nil unless
	// Options.FleetIndex is set). Entries are refreshed under each
	// object's write lock; a query of a built bucket takes only the
	// index's internal stripe read locks, never an object or shard lock.
	index *spatial.Index
	// idxLive has bit b set once a fleet query has read bucket b
	// (index.Horizons()[b]): refreshes maintain those buckets and no
	// others. idxBuilt has the bit once that bucket's build has walked
	// every object. Both only grow and are written under idxBuildMu;
	// idxBuilds and idxBuildNanos count the builds and their wall time
	// (spatial.go).
	idxBuildMu    sync.Mutex
	idxLive       atomic.Uint64
	idxBuilt      atomic.Uint64
	idxBuilds     atomic.Uint64
	idxBuildNanos atomic.Uint64
}

// shard is one slice of the object table: a sub-map under its own lock.
// dirty marks that some object in the shard changed — observe, model
// update, WAL replay — since the last checkpoint encoded it; the
// next incremental checkpoint rewrites only dirty shards' segments.
type shard struct {
	mu      sync.RWMutex
	objects map[string]*object
	dirty   atomic.Bool
}

// object is one tracked object's state. mu is a read-write lock: queries
// (the predicts, Now, Stats) share a read lock —
// the predictor's query path is lock-free internally, so any number run in
// parallel — while observes, model installs and Extends take the write lock.
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
	// memo holds the answers given since the last write (memo.go).
	memo atomic.Pointer[memo]
	// life is the model-update policy's state (life.go): the track's base,
	// the modeled periods, and where the last failed train stopped.
	life
	// lastTrainErr is the most recent train failure, cleared when a train
	// succeeds; trainFails counts failed attempts over the object's life.
	// An Extend that fails during recovery is recorded here too.
	lastTrainErr error
	trainFails   int
	// eval scores this object's served predictions against later
	// observations (nil when Options.EvalDisabled). It has its own lock:
	// queries record into it under obj.mu's read lock.
	eval *evalq.Tracker
	// Cumulative incremental-update counters across the object's Extends,
	// surfaced by Stats.
	unmatchedPts    int
	retiredPatterns int
	mintedRegions   int
	// id is the object's key in the shard map, carried here so paths
	// without the id at hand (dirty marks, index refreshes) can address the
	// fleet index. Immutable after creation.
	id string
	// slot is the object's handle in the fleet index, taken on its first
	// index refresh (zero until then); written under mu's write lock.
	slot spatial.Slot
	// idxEntries and idxTqs are reusable scratch for the fleet-index
	// refresh, touched only under mu's write lock.
	idxEntries []spatial.Entry
	idxTqs     []int
	// idxLast/idxVel/idxLive are the inputs of the last index refresh
	// (idxLive the store's live-bucket word, zero before any refresh):
	// while untrained, entries are a pure function of (last point,
	// velocity) at the live buckets, so a refresh with identical inputs
	// is skipped before any entry is built — the common case for parked
	// objects and duplicate position pings. Guarded by mu.
	idxLast hpm.Point
	idxVel  hpm.Point
	idxLive uint64
}

// New returns an empty store. Config.Period must be positive.
func New(opts Options) (*Store, error) {
	if opts.Config.Period <= 0 {
		return nil, errors.New("store: Options.Config.Period must be positive")
	}
	s := &Store{
		opts:    opts.withDefaults(),
		workers: runtime.GOMAXPROCS(0),
	}
	for i := range s.shards {
		s.shards[i].objects = map[string]*object{}
	}
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
// are merged in order. Extend errors are joined and returned after every
// point has been applied; the points themselves are durable and
// acknowledged even then. A failed first train is not an error here: it
// is reported on the object's Stats and counted in FleetStats.
func (s *Store) ObserveAll(batch []Observation) error {
	return s.ObserveAllContext(context.Background(), batch)
}

// ObserveAllContext is ObserveAll with request-scoped cancellation, honored
// only up to the WAL commit (see ctx.go). It is the store's one observe
// path: WAL commit (the acknowledgment barrier), track append and Markov
// fold, prequential scoring, update policy, index refresh, and last the
// first trains the batch made due, across the workers.
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
	// batches acquire in the same order, so they cannot deadlock.
	if len(groups) > 1 {
		sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	}
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
	defer func() {
		for i := range groups {
			groups[i].obj.ingestMu.Unlock()
		}
	}()
	if err := ctx.Err(); err != nil {
		return err // canceled while acquiring locks: nothing staged yet
	}
	// The snapshot gate spans commit through apply + dirty mark, so a
	// checkpoint that rotated the WAL cannot collect the dirty set while a
	// record sits durable-but-unapplied in a segment it is about to
	// reclaim. Released before scoring and the model update: extends must
	// not extend the checkpoint's barrier wait.
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
		g.obj.lockWrite()
		g.at = s.appendLocked(g.obj, g.pts)
		g.obj.mu.Unlock()
	}
	s.snapGate.RUnlock()
	var errs []error
	var due []*fleetGroup
	for i := range groups {
		g := &groups[i]
		g.obj.lockWrite()
		if g.obj.eval != nil {
			g.obj.eval.Observe(g.at, g.pts) // score what the new points cover
		}
		var err error
		if g.train, err = s.advance(g.obj); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", g.id, err))
		}
		if g.train > 0 {
			due = append(due, g)
		}
		s.indexUpdateLocked(g.obj)
		g.obj.mu.Unlock()
	}
	parallel.For(len(due), s.workers, func(i int) { s.train(due[i].obj, due[i].train) })
	return errors.Join(errs...)
}

// appendLocked is the one step that grows a track: append, dirty mark and
// Markov fold, returning the timestamp of pts[0]. Called with obj.ingestMu
// and obj.mu held.
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
	train int  // periods of a first train the batch made due, 0 for none
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

// advance runs what the object's life asks for now that its track ends
// where it does: an Extend over the periods completed since the model last
// learned, run here, or the first train, whose period count it returns for
// the caller to run through train once obj.mu is released (0 when none is
// due). It serves every path that moves a track: observe, WAL replay and
// recovery. Called with obj.ingestMu held and obj.mu write-locked.
func (s *Store) advance(obj *object) (train int, err error) {
	a := obj.life.appended(&s.opts, obj.base+len(obj.track), obj.predictor != nil)
	switch a.kind {
	case actTrain:
		return a.to, nil
	case actExtend:
		period := s.opts.Config.Period
		start := time.Now()
		res, err := obj.predictor.Extend(obj.track[a.from*period-obj.base : a.to*period-obj.base])
		s.extendNanos.Add(uint64(time.Since(start)))
		s.extends.Add(1)
		if res.Seeded {
			s.seeds.Add(1)
			s.seedNanos.Add(uint64(res.SeedDuration))
		}
		if err != nil {
			return 0, fmt.Errorf("store: extend: %w", err)
		}
		obj.unmatchedPts += res.UnmatchedPoints
		obj.retiredPatterns += res.RetiredPatterns
		obj.mintedRegions += res.NewRegions
		s.learnedLocked(obj, a.to)
		// A minted region re-partitions space, so visits folded into the
		// chain under the old region set are stale: re-fold the retained
		// track. When no region was minted the incremental folds are already
		// exact and the extend stays O(new data).
		if res.NewRegions > 0 {
			obj.predictor.Model().RebuildMarkov(obj.base, obj.track)
		}
	}
	return 0, nil
}

// learnedLocked runs what follows a train's install or an extend: the trim
// life asks for — the tail copied to a fresh slice, so the old backing array
// is freed — and the dirty mark, since the model changed where no observe may
// have marked the shard (recovery). Called with obj.mu write-locked.
func (s *Store) learnedLocked(obj *object, modeled int) {
	end := obj.base + len(obj.track)
	if a := obj.life.learned(&s.opts, end, modeled); a.kind == actTrim {
		obj.track = append([]hpm.Point(nil), obj.track[len(obj.track)-(end-a.cut):]...)
	}
	s.markDirty(obj.id)
}

// train is an object's first train over its first completed periods, due
// by advance. The caller holds obj.ingestMu and not obj.mu, so the track
// cannot move: the trainer reads the completed prefix in place while readers
// keep answering ErrUntrained. One hold of the write lock then installs the
// predictor or records the failure, a panic included, on the object's Stats
// and the fleet counter. A failed train is no observe error — its points are
// acknowledged — and is not retried on the same data: the object's next
// completed period tries again, as does a restart.
//
// The install trims, marks the shard dirty and brings the Markov chain up to
// the track. The trainer folded its chain over the prefix in the prefix's
// clock. When that is the store's (the base is still 0) only the points it
// did not see are folded on; otherwise the retained track is refolded. Either
// way the chain ends as RebuildMarkov would leave it. The fleet-index entries
// then re-bin against the trained predictor.
func (s *Store) train(obj *object, completed int) {
	p, err := s.trainGuarded(obj.track[:completed*s.opts.Config.Period-obj.base])
	obj.lockWrite()
	defer obj.mu.Unlock()
	if err != nil {
		s.failedLocked(obj, fmt.Errorf("store: train: %w", err))
		obj.life.failed(completed)
		return
	}
	obj.predictor, obj.lastTrainErr = p, nil
	s.learnedLocked(obj, completed)
	if obj.base != 0 {
		p.Model().RebuildMarkov(obj.base, obj.track)
	} else {
		for t := completed * s.opts.Config.Period; t < len(obj.track); t++ {
			p.MarkovObserve(t, obj.track[t])
		}
	}
	s.indexUpdateLocked(obj)
}

// trainGuarded trains a predictor off pts, converting panics into errors:
// one poisoned track must never take down the whole fleet's process. Every
// attempt counts toward Trains and TrainSeconds, failed ones included.
func (s *Store) trainGuarded(pts []hpm.Point) (p *hpm.Predictor, err error) {
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
		s.trainNanos.Add(uint64(time.Since(start)))
		s.trains.Add(1)
	}()
	if err := s.fault(faultinject.OpTrain); err != nil {
		return nil, err
	}
	return hpm.TrainPoints(pts, s.opts.Config)
}

// failedLocked records a model update that did not land on the object's
// Stats and the fleet's failure count. Called with obj.mu write-locked.
func (s *Store) failedLocked(obj *object, err error) {
	s.trainFailures.Add(1)
	obj.trainFails++
	obj.lastTrainErr = err
}

// Flush returns nil. Every model update runs inside the observe that makes
// it due, so when an observe returns its models already reflect it; Flush
// is kept for callers written when first trains ran in the background.
func (s *Store) Flush() error { return nil }

// Close stops the recovery probe and flips readiness off. A durable store
// additionally writes a final checkpoint and releases its WAL. Observations
// and queries still work after Close on an in-memory store.
func (s *Store) Close() error {
	s.degradeMu.Lock()
	wasStopped := s.stopped
	s.stopped = true // no new probe goroutine may start from here on
	s.degradeMu.Unlock()
	if !wasStopped {
		close(s.stop) // ends the recovery probe, if one is running
	}
	// Wait the probe out before touching the WAL below: a recovery in
	// flight reopens segments this Close is about to close.
	s.probeWG.Wait()
	if s.wal == nil {
		return nil
	}
	var err error
	if s.state.Load() == stateHealthy {
		err = s.checkpoint(false)
	} else {
		// Degraded: the disk is refusing writes, so don't wedge
		// shutdown on a snapshot that cannot land. Every acknowledged
		// record is already in a WAL segment; the next Open replays
		// them (the torn tail of the broken segment is repaired by the
		// tolerant final-segment replay).
		err = fmt.Errorf("store: close without checkpoint: %w", ErrDegraded)
	}
	return errors.Join(err, s.wal.close())
}

// PredictContext estimates the object's location at absolute time tq
// (timestamps count observations from zero) from its most recent
// movements: PredictBatchContext at one time. Queries run under the
// object's read lock: any number execute in parallel with each other,
// serializing only against writes (observes, Extends). A tq more than
// MaxHorizon past the object's current time is refused with ErrTooFar, as
// by every predict call. A client that disconnected or blew its deadline
// before the query starts — or while waiting for the object's lock behind a
// writer — gets the context's error instead of an answer nobody reads.
func (s *Store) PredictContext(ctx context.Context, id string, tq, k int) ([]hpm.Prediction, error) {
	out, err := s.PredictBatchContext(ctx, id, []int{tq}, k)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// withTrained runs fn under the object's read lock with the object's current
// time — the one snapshot everything a query derives from must share — or
// fails with ErrUntrained before fn when the object has no model.
func (s *Store) withTrained(ctx context.Context, id string, fn func(obj *object, now int) error) error {
	obj, err := s.get(id, false)
	if err != nil {
		return err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	if obj.predictor == nil {
		return ErrUntrained
	}
	return fn(obj, obj.base+len(obj.track)-1)
}

// PredictRangeContext is PredictRange with request-scoped cancellation.
func (s *Store) PredictRangeContext(ctx context.Context, id string, from, to int) (preds []hpm.Prediction, err error) {
	if to-from > MaxRange {
		return nil, ErrRangeTooLarge
	}
	err = s.withTrained(ctx, id, func(obj *object, now int) error {
		if err := checkHorizon(now, to); err != nil {
			return err
		}
		preds, err = obj.predictor.PredictRange(s.recentLocked(obj), from, to)
		return err
	})
	return preds, err
}

// PredictBatchContext is PredictBatch with request-scoped cancellation.
func (s *Store) PredictBatchContext(ctx context.Context, id string, tqs []int, k int) (out [][]hpm.Prediction, err error) {
	err = s.withTrained(ctx, id, func(obj *object, now int) error {
		if err := checkHorizon(now, tqs...); err != nil {
			return err
		}
		out, err = s.answerLocked(obj, now, tqs, k)
		return err
	})
	return out, err
}

// PredictBatchAheadContext is PredictBatchContext at horizons relative to
// the object's latest observation, resolved under the same lock hold that
// answers them. It returns the absolute query times, aligned with the
// predictions. Unlike Now followed by a predict, which ingest can overtake
// between the two calls, a positive horizon never fails as "not after
// current time".
func (s *Store) PredictBatchAheadContext(ctx context.Context, id string, horizons []int, k int) (tqs []int, out [][]hpm.Prediction, err error) {
	for _, h := range horizons {
		if err := validateFleetQuery(h); err != nil {
			return nil, nil, err
		}
		if h > MaxHorizon {
			return nil, nil, ErrTooFar
		}
	}
	err = s.withTrained(ctx, id, func(obj *object, now int) error {
		tqs = make([]int, len(horizons))
		for i, h := range horizons {
			tqs[i] = now + h
		}
		out, err = s.answerLocked(obj, now, tqs, k)
		return err
	})
	return tqs, out, err
}

// recentLocked builds the query window from the tail of the track.
func (s *Store) recentLocked(obj *object) []hpm.TimedPoint {
	n := len(obj.track)
	w := min(s.opts.MaxRecent, n)
	recent := make([]hpm.TimedPoint, 0, w)
	for t := n - w; t < n; t++ {
		recent = append(recent, hpm.TimedPoint{T: obj.base + t, Loc: obj.track[t]})
	}
	return recent
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
	Modeled    int  // periods the model has absorbed
	Regions    int
	Patterns   int
	IndexBytes int
	// TrainFailures counts failed train attempts over the object's life,
	// and Extends that failed during recovery; LastTrainError is the most
	// recent one, cleared by a successful train.
	TrainFailures  int
	LastTrainError string `json:",omitempty"`
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
		Modeled:         obj.modeled,
		TrainFailures:   obj.trainFails,
		RetainedPoints:  len(obj.track),
		UnmatchedPoints: obj.unmatchedPts,
		RetiredPatterns: obj.retiredPatterns,
		MintedRegions:   obj.mintedRegions,
	}
	if obj.lastTrainErr != nil {
		st.LastTrainError = obj.lastTrainErr.Error()
	}
	if obj.predictor != nil {
		st.Trained = true
		st.Regions = obj.predictor.NumRegions()
		st.Patterns = obj.predictor.NumPatterns()
		st.IndexBytes = obj.predictor.IndexBytes()
		st.Queries = obj.predictor.QueryStats()
	}
	return st, nil
}

// Health summarizes the store's fitness to serve, for readiness probes.
type Health struct {
	Objects int  `json:"objects"`
	Closed  bool `json:"closed"`
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
	// TrainFailures counts every failed train attempt, and every Extend
	// that failed during recovery, since the process started; each one is
	// on its object's Stats.
	TrainFailures uint64 `json:"trainFailures"`
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
	// object (recoverModels). The fleet index is not rebuilt here: each
	// bucket is built by the first query that reads it.
	RecoverSeconds float64 `json:"recoverSeconds"`
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

// Health reports the store's current health.
func (s *Store) Health() Health {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += len(sh.objects)
		sh.mu.RUnlock()
	}
	h := Health{
		Objects:          n,
		Durable:          s.wal != nil,
		SnapshotRestored: s.restored,
		WALReplayed:      s.replayed,
		TrainFailures:    s.trainFailures.Load(),
		State:            s.stateName(),
		Degraded:         s.degraded(),
		WALErrors:        s.walErrors.Load(),
		Degrades:         s.degrades.Load(),
		Recoveries:       s.recoveries.Load(),
		Checkpoints:      s.checkpoints.Load(),
		SnapshotBytes:    s.snapshotBytes.Load(),
		LastCheckpoint:   s.lastCheckpoint.Load(),
		Open:             s.openInfo,
	}
	s.degradeMu.Lock()
	h.Closed = s.stopped
	if s.lastWALErr != nil {
		h.LastWALError = s.lastWALErr.Error()
	}
	s.degradeMu.Unlock()
	return h
}

// Objects lists all tracked ids, sorted. Shards are visited one at a
// time in index order; ids added mid-walk may or may not appear, like
// any concurrent map listing.
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

// Predictor returns the object's current predictor for advanced use
// (saving, inspection); nil when untrained. Once set it is never replaced:
// later periods extend it in place, under the object's write lock.
func (s *Store) Predictor(id string) (*hpm.Predictor, error) {
	obj, err := s.get(id, false)
	if err != nil {
		return nil, err
	}
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	return obj.predictor, nil
}
