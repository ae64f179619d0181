package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"hpm/internal/faultinject"
	"hpm/internal/parallel"
)

// Durable stores: Open roots a store in a directory holding a snapshot —
// a manifest plus per-shard segment files (store/snapshot.go) — plus
// write-ahead-log segments. Every acknowledged observation is either in
// the snapshot or in a WAL segment, so a crash at any instant loses
// nothing acknowledged (in sync mode).
// Checkpoint compacts: it rotates the WAL, rewrites the segments of
// shards that changed since the last checkpoint (all of them on a fresh
// directory's first), commits a manifest atomically, and deletes the WAL
// segments the snapshot covers.

// snapshotFile is the manifest's name inside a durable store's directory.
const snapshotFile = "snapshot.hpms"

// Open opens (or creates) a durable store rooted at dir. The directory fixes
// the period and nothing else: a manifest states the period its tracks and
// models are laid out in, a zero opts.Config.Period adopts it and a different
// one is refused before any segment is read. Everything else is opts, on
// every Open, exactly as in New. The snapshot is loaded and the WAL tail
// replayed on top, tolerating a torn final record. The returned store logs
// every ObserveBatch to a fresh WAL segment before acknowledging it; Close
// checkpoints and releases the log, and Checkpoint may be called
// periodically in between.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A stale temp file is a checkpoint that never completed; the real
	// snapshot (if any) is intact, so the temp is garbage.
	os.Remove(filepath.Join(dir, snapshotFile+".tmp"))

	// lap returns the wall seconds since the previous lap: Open's phases
	// run back to back, and OpenInfo says which one a slow start went to.
	mark := time.Now()
	lap := func() float64 {
		prev := mark
		mark = time.Now()
		return mark.Sub(prev).Seconds()
	}
	var info OpenInfo

	path := filepath.Join(dir, snapshotFile)
	period, m, msize, err := readManifest(path)
	switch {
	case err == nil:
		// Tracks and models are laid out in periods of the directory's
		// length; serving them under another would answer quietly wrong.
		if p := opts.Config.Period; p != 0 && p != period {
			return nil, fmt.Errorf("store: %s holds a period-%d fleet, opened with period %d: a store's period is fixed when it is created", dir, period, p)
		}
		opts.Config.Period = period
	case !errors.Is(err, os.ErrNotExist):
		return nil, err
	}
	s, err := New(opts)
	if err != nil {
		return nil, err
	}
	// Error paths from here on must close the store: the probe/stop
	// machinery exists from New, and a failed Open must not leak it.
	s.dir = dir
	if m != nil {
		if err := s.loadSegments(dir, m); err != nil {
			s.Close()
			return nil, fmt.Errorf("store: snapshot %s: %w", path, err)
		}
		s.manifest, s.restored = m, true
		s.snapshotBytes.Store(uint64(msize + m.segmentBytes()))
		for i := range s.shards {
			for _, obj := range s.shards[i].objects {
				if obj.predictor != nil {
					info.Models++
				}
			}
		}
	}
	info.LoadSeconds = lap()
	// Segment files no manifest references are leftovers of a checkpoint
	// that died between writing segments and committing its manifest.
	sweepSegments(dir, m)

	w, err := openWAL(dir, !opts.WALNoSync)
	if err != nil {
		s.Close()
		return nil, err
	}
	replayed, err := s.replaySegments(w.frozen)
	if err != nil {
		w.close()
		s.Close()
		return nil, err
	}
	s.replayed = replayed
	// Nothing but replay has extended a model yet.
	info.ReplaySeconds, info.ReplayExtends = lap(), s.extends.Load()
	s.recoverModels()
	info.RecoverSeconds = lap()
	s.openInfo = &info
	// Wire the degradation state machine into the log before any append
	// can happen: the fault points let tests inject disk failures at the
	// flush, and every group commit's outcome feeds noteWALFlush.
	w.fault = s.fault
	w.onFlush = s.noteWALFlush
	s.wal = w
	return s, nil
}

// recoverModels advances every object after recovery, under its ingest lock
// as an observe would. A crash can land between an observe's acknowledgment
// and its train, and a failed train's wait for the next period is in memory
// only; nothing else would train the object until its next observation —
// which for a parked vehicle may be never. Failures go to the object's Stats.
func (s *Store) recoverModels() {
	objs := s.listObjects()
	// Objects are independent here — each update touches only its own
	// locks — so recovery fans out across the store's workers.
	parallel.For(len(objs), s.workers, func(i int) {
		obj := objs[i]
		obj.ingestMu.Lock()
		defer obj.ingestMu.Unlock()
		obj.lockWrite()
		train, err := s.advance(obj)
		if err != nil {
			s.failedLocked(obj, err)
		}
		obj.mu.Unlock()
		if train > 0 {
			s.train(obj, train)
		}
	})
}

// replaySegments applies the WAL tail left by the previous process on top
// of the snapshot. Only the newest segment may carry a torn record (older
// ones were frozen and fsynced before more writes happened); it is
// repaired in place by replaySegment.
//
// Replay is parallel in two stages. Segments are decoded concurrently
// (each yields its records, concatenated back in segment order, so the
// global stream order is exactly what a serial read would produce), then
// records are partitioned by shard and applied by a worker per shard
// group: an id hashes to exactly one shard, and each group keeps stream
// order, so per-object ordering — the only ordering replay relies on —
// is preserved.
func (s *Store) replaySegments(paths []string) (int, error) {
	if len(paths) == 0 {
		return 0, nil
	}
	type segRecs struct {
		recs []walRecord
		n    int
		err  error
	}
	decoded := make([]segRecs, len(paths))
	parallel.For(len(paths), s.workers, func(i int) {
		sr := &decoded[i]
		sr.n, sr.err = replaySegment(paths[i], i == len(paths)-1, func(rec walRecord) error {
			sr.recs = append(sr.recs, rec)
			return nil
		})
	})
	total := 0
	var recs []walRecord
	for i := range decoded {
		total += decoded[i].n
		if err := decoded[i].err; err != nil {
			return total, fmt.Errorf("store: replay %s: %w", filepath.Base(paths[i]), err)
		}
		recs = append(recs, decoded[i].recs...)
	}
	byShard := make([][]int, len(s.shards))
	for i, rec := range recs {
		si := shardIndex(rec.id)
		byShard[si] = append(byShard[si], i)
	}
	groups := byShard[:0]
	for _, g := range byShard {
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	errs := make([]error, len(groups))
	parallel.For(len(groups), s.workers, func(gi int) {
		for _, i := range groups[gi] {
			if err := s.applyReplay(recs[i]); err != nil {
				errs[gi] = err
				return
			}
		}
	})
	if err := errors.Join(errs...); err != nil {
		return total, err
	}
	return total, nil
}

// applyReplay merges one WAL record into the store. The offset (the
// object's track length when the record was acknowledged) makes replay
// idempotent: points the snapshot already holds are skipped. An offset
// beyond the current track means an acknowledged record vanished between
// this one and the snapshot — that is corruption and is reported.
func (s *Store) applyReplay(rec walRecord) error {
	// No observe writes a record without points. Older builds wrote one as
	// a tombstone that erased its object; that record is refused here
	// rather than in decodeWALRecord, where a decode error in the newest
	// segment would be taken for a torn tail and truncate every record
	// after it.
	if len(rec.pts) == 0 {
		return fmt.Errorf("store: replay: record for %q at offset %d has no points", rec.id, rec.offset)
	}
	obj, err := s.get(rec.id, true)
	if err != nil {
		return err
	}
	// Replay runs before the store is shared, parallel only across shards
	// (one worker owns all of a shard's records), but track mutation
	// requires both locks by invariant; both are uncontended.
	obj.ingestMu.Lock()
	defer obj.ingestMu.Unlock()
	obj.lockWrite()
	var train int
	// Offsets are absolute timestamps; a retention-trimmed track compares
	// against base + length, the timestamp its next point will take.
	switch have := obj.base + len(obj.track); {
	case rec.offset > have:
		err = fmt.Errorf("store: replay gap for %q: record at offset %d, track has %d", rec.id, rec.offset, have)
	case rec.offset+len(rec.pts) > have: // else covered by the snapshot or an earlier record
		// The same append, dirty mark, Markov fold and update policy as the
		// live observe — replay must reproduce the crashed process's chain
		// bit-for-bit on top of the snapshot's blob, and replayed records
		// live only in WAL segments the next checkpoint reclaims — but no
		// scoring and no index refresh: the evaluator's ring died with the
		// process, and the first query of each bucket fills it.
		s.appendLocked(obj, rec.pts[have-rec.offset:])
		train, err = s.advance(obj)
	}
	obj.mu.Unlock()
	if train > 0 {
		s.train(obj, train)
	}
	return err
}

// Checkpoint writes an atomic snapshot of the fleet and reclaims the WAL
// segments it makes obsolete. Safe to call concurrently with observes and
// queries: the WAL rotates to a fresh segment first, so records raced in
// during the snapshot write land in the new segment and replay as no-ops.
// On any failure every segment is kept, so no acknowledged observation is
// ever lost to a half-finished checkpoint.
func (s *Store) Checkpoint() error {
	return s.checkpoint(false)
}

// checkpoint is Checkpoint's engine. force runs it even while the store
// is not healthy — recovery checkpoints from the recovering state, where
// the public path would refuse — while the unforced path fails fast with
// ErrDegraded rather than grind a dead disk through a snapshot write.
//
// The cost is O(dirty): only shards that changed since the last
// checkpoint are re-encoded; clean shards' segment files are chained
// from the previous manifest untouched. The sequence is crash-safe at
// every step:
//
//  1. rotate the WAL — raced-in records land in the fresh segment;
//  2. barrier on snapGate — every record committed to a rotated-away
//     segment is applied in memory and has marked its shard dirty;
//  3. swap each shard's dirty flag and rewrite exactly those shards'
//     segments (in parallel, to their final epoch-stamped names — they
//     are invisible until the manifest references them);
//  4. commit the manifest atomically (temp + rename + dir sync);
//  5. only then delete superseded segment files and the frozen WAL.
//
// A failure before step 4 restores the dirty flags and deletes the new
// files: the old manifest and every WAL segment remain authoritative. A
// crash between 4 and 5 leaves obsolete files that replay/sweep as
// no-ops on the next Open.
func (s *Store) checkpoint(force bool) error {
	if s.wal == nil {
		return errors.New("store: Checkpoint requires a store opened with Open")
	}
	if !force {
		if err := s.writable(); err != nil {
			return err
		}
	}
	s.checkpointMu.Lock()
	defer s.checkpointMu.Unlock()
	if err := s.fault(faultinject.OpSnapshot); err != nil {
		return fmt.Errorf("store: snapshot: %w", err)
	}
	start := time.Now()
	frozen, err := s.wal.rotate()
	if err != nil {
		return err
	}
	// Barrier: an observer holds the gate's read side from before its WAL
	// commit until its in-memory apply and dirty mark. Taking the write
	// side here (and releasing it immediately) guarantees every record
	// that made it into a rotated-away segment is both applied and
	// reflected in the dirty flags we are about to read — otherwise a
	// record could be durable only in a segment this checkpoint reclaims
	// while its shard's rewrite misses it.
	s.snapGate.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	s.snapGate.Unlock()

	prev := s.manifest
	full := prev == nil
	var epoch uint64 = 1
	if prev != nil {
		epoch = prev.epoch + 1
	}
	cleared := make([]bool, len(s.shards))
	var rewrite []int
	for i := range s.shards {
		if s.shards[i].dirty.Swap(false) {
			cleared[i] = true
		}
		if full || cleared[i] {
			rewrite = append(rewrite, i)
		}
	}
	if !full && len(rewrite) == 0 {
		// Nothing changed since the last checkpoint. The barrier above
		// proves every record in the frozen segments was already covered
		// by the current manifest, so they reclaim safely; the manifest
		// itself needn't move.
		if err := s.fault(faultinject.OpManifest); err != nil {
			return fmt.Errorf("store: manifest: %w", err)
		}
		s.wal.reclaim(frozen)
		dur := time.Since(start)
		s.checkpoints.Add(1)
		s.checkpointNanos.Add(uint64(dur))
		s.lastCheckpoint.Store(&CheckpointInfo{
			When: time.Now(), Seconds: dur.Seconds(), Epoch: prev.epoch,
		})
		return nil
	}

	segs := make([]*snapSegment, len(rewrite))
	errs := make([]error, len(rewrite))
	parallel.For(len(rewrite), s.workers, func(i int) {
		segs[i], errs[i] = s.writeShardSegment(rewrite[i], epoch)
	})
	// Any pre-commit failure must leave the store exactly as it was: the
	// shards we optimistically cleared are dirty again (their changes are
	// still only in the WAL plus the old snapshot), and this epoch's
	// half-written files are garbage.
	fail := func(err error) error {
		for i, c := range cleared {
			if c {
				s.shards[i].dirty.Store(true)
			}
		}
		for _, sg := range segs {
			if sg != nil {
				os.Remove(filepath.Join(s.dir, sg.name))
			}
		}
		return err
	}
	if err := errors.Join(errs...); err != nil {
		return fail(err)
	}
	// Make the new segments' directory entries durable before a manifest
	// can reference them.
	syncDir(s.dir)

	next := &snapManifest{epoch: epoch}
	rewritten := make(map[int]bool, len(rewrite))
	for _, si := range rewrite {
		rewritten[si] = true
	}
	if prev != nil {
		for _, sg := range prev.segments {
			if !rewritten[sg.shard] {
				next.segments = append(next.segments, sg)
			}
		}
	}
	objects, written := 0, 0
	for _, sg := range segs {
		if sg != nil { // nil: the shard emptied out; it simply has no segment
			next.segments = append(next.segments, *sg)
			objects += sg.objects
			written++
		}
	}
	sort.Slice(next.segments, func(i, j int) bool {
		return next.segments[i].shard < next.segments[j].shard
	})
	msize, err := s.writeManifest(next)
	if err != nil {
		return fail(err)
	}
	// Committed. From here the new manifest is authoritative; the rest is
	// garbage collection.
	s.manifest = next
	dur := time.Since(start)
	s.checkpoints.Add(1)
	s.checkpointNanos.Add(uint64(dur))
	s.checkpointObjs.Add(uint64(objects))
	s.snapshotBytes.Store(uint64(msize + next.segmentBytes()))
	s.lastCheckpoint.Store(&CheckpointInfo{
		When:    time.Now(),
		Seconds: dur.Seconds(),
		Objects: objects,
		Shards:  written,
		Full:    full,
		Epoch:   epoch,
	})
	// Crash window between manifest commit and reclaim: obsolete segment
	// files and WAL segments survive, and the next Open sweeps/replays
	// them as no-ops. The fault point simulates exactly that crash.
	if err := s.fault(faultinject.OpManifest); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	if prev != nil {
		for _, sg := range prev.segments {
			if rewritten[sg.shard] {
				os.Remove(filepath.Join(s.dir, sg.name))
			}
		}
	}
	s.wal.reclaim(frozen)
	return nil
}

// readManifest reads the manifest at path: verify the CRC, parse it. It
// returns the period the directory was created with, the segment list and
// the file's size; a missing file is os.ErrNotExist.
func readManifest(path string) (period int, m *snapManifest, size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, 0, err
	}
	if len(data) < 4 {
		return 0, nil, 0, fmt.Errorf("store: snapshot %s: too short to hold a checksum", path)
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(payload, walCRC) != binary.LittleEndian.Uint32(trailer) {
		return 0, nil, 0, fmt.Errorf("store: snapshot %s: checksum mismatch (corrupt or truncated)", path)
	}
	if period, m, err = parseManifest(payload); err != nil {
		return 0, nil, 0, fmt.Errorf("store: snapshot %s: %w", path, err)
	}
	return period, m, int64(len(data)), nil
}

// crcWriter hashes everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, walCRC, p[:n])
	return n, err
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Best effort: some filesystems refuse directory syncs.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// walAppendAll logs an observe batch as one group commit. Called with every
// touched object's ingestMu held (sorted order) — not obj.mu — so the
// recorded offsets stay valid until the batch is applied while queries
// keep running through the commit and fsync. Every record carries at
// least one point: empty groups return before reaching the WAL.
func (s *Store) walAppendAll(recs []walRecord) error {
	if err := s.fault(faultinject.OpWALAppend); err != nil {
		return fmt.Errorf("store: wal append: %w", err)
	}
	return s.degradedErr(s.wal.appendAll(recs))
}
