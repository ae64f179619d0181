package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"hpm"
	"hpm/internal/faultinject"
)

// errWALBroken is returned for appends staged after a segment write
// failure, until recovery resets to a fresh segment. The store wraps it
// in ErrDegraded before it reaches callers.
var errWALBroken = errors.New("store: wal segment broken by a failed write")

// Write-ahead observation log. Every ObserveBatch against a durable store
// appends one record — object id, track offset, points — to the current
// WAL segment before the observation is acknowledged, so a crash between
// snapshots loses nothing that a client was told succeeded.
//
// Appends are group-committed: concurrent appenders stage their encoded
// records into a shared batch, one of them (the leader) writes the whole
// batch with a single file write and a single fsync, and every waiter is
// released once the batch is durable. The acknowledgment guarantee is
// unchanged — appendAll returns nil only after its records' batch hit disk
// (in sync mode) — but the fsync cost is amortized across every writer
// that joined the batch, so durable ingest throughput grows with writer
// concurrency instead of serializing on one fsync per record.
//
// Record layout (all integers little-endian):
//
//	record  := uvarint(len(payload)) payload uint32(crc32c(payload))
//	payload := uvarint(len(id)) id uvarint(offset) uvarint(n) n×(f64 x, f64 y)
//
// n ≥ 1: no observe writes a record without points, and replay refuses
// one (applyReplay). offset is the object's track length when the record
// was written, which
// makes replay idempotent: a record whose points are already covered by
// the snapshot (offset+n <= len(track)) is skipped, and a partial overlap
// appends only the missing tail. That lets a checkpoint rotate to a fresh
// segment *before* writing the snapshot — records raced into the new
// segment while the snapshot is being written replay as no-ops.
//
// The log is segmented: each process start and each checkpoint opens a
// fresh segment, and a checkpoint deletes the segments its snapshot made
// obsolete. Segments are never appended to after being frozen, so a torn
// record — a crash mid-append — can only sit at the tail of the newest
// segment; replay discards it (it was never acknowledged, assuming sync
// mode) and truncates the segment so the tear cannot be mistaken for
// corruption later. A checksum failure in an older, fsynced segment is
// reported as an error: that is disk damage, not a crash artifact.

const (
	walSegmentPattern = "wal-*.log"
	walSegmentFormat  = "wal-%010d.log"
	// maxWALRecord bounds one record's payload (1 MiB of JSON observe body
	// can't produce more points than this allows).
	maxWALRecord = 64 << 20
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// walBatch is one group commit: the concatenated records staged by every
// appender that joined it, the barrier they block on, and the outcome of
// the flush that made (or failed to make) them durable.
type walBatch struct {
	buf  []byte
	done chan struct{} // closed by the leader after the flush
	err  error         // written before done is closed
}

// wal is the store's write-ahead log handle: one open segment plus the
// frozen segments awaiting the next checkpoint.
type wal struct {
	dir  string
	sync bool // fsync once per group commit

	mu      sync.Mutex
	flushed *sync.Cond // broadcast when writing flips false
	f       *os.File
	seq     uint64
	frozen  []string  // closed segments, oldest first, reclaimed at checkpoint
	retired []string  // closed but not yet repaired segments (see reset)
	cur     *walBatch // batch accepting stagers; nil when none staged
	writing bool      // a leader is flushing; stagers become followers
	spare   []byte    // recycled batch buffer, so steady state allocates nothing
	scratch []byte    // payload encode scratch, used under mu

	// broken marks the active segment untrusted after a failed write: a
	// short write leaves a torn record mid-file, and appending past it
	// would strand every later record behind an undecodable prefix — so
	// once set, appends fail fast until reset opens a fresh segment.
	// A failed *fsync* does not set it: the bytes are whole, only their
	// durability is in doubt, and retrying in place stays content-safe.
	broken bool

	// fault, when set, is consulted at the write and sync fault points
	// (disk-full, wal-sync-latency, wal-sync-error); onFlush, when set,
	// observes every group commit's outcome — the store's degradation
	// state machine counts failures there. Both are fixed at Open.
	fault   func(faultinject.Op) error
	onFlush func(err error, broke bool)

	// Commit accounting, read by benchmarks and Store.WALStats: records
	// staged, group commits written (one file write each), fsyncs issued.
	records atomic.Uint64
	batches atomic.Uint64
	fsyncs  atomic.Uint64
}

// openWAL scans dir for existing segments (they become frozen — replayed
// by the caller, reclaimed by the next checkpoint) and opens a fresh
// segment after them. It never appends to a pre-existing segment, so a
// torn tail stays where replay repaired it.
func openWAL(dir string, syncEach bool) (*wal, error) {
	frozen, last, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	w := &wal{dir: dir, sync: syncEach, frozen: frozen, seq: last}
	w.flushed = sync.NewCond(&w.mu)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// walSegments lists dir's WAL segments sorted by sequence number and
// returns the highest sequence seen.
func walSegments(dir string) (paths []string, last uint64, err error) {
	matches, err := filepath.Glob(filepath.Join(dir, walSegmentPattern))
	if err != nil {
		return nil, 0, err
	}
	type seg struct {
		path string
		seq  uint64
	}
	segs := make([]seg, 0, len(matches))
	for _, m := range matches {
		var n uint64
		if _, err := fmt.Sscanf(filepath.Base(m), walSegmentFormat, &n); err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, seg{m, n})
		if n > last {
			last = n
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	for _, s := range segs {
		paths = append(paths, s.path)
	}
	return paths, last, nil
}

// openSegmentLocked opens segment seq+1 for appending.
func (w *wal) openSegmentLocked() error {
	w.seq++
	path := filepath.Join(w.dir, fmt.Sprintf(walSegmentFormat, w.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: open wal segment: %w", err)
	}
	syncDir(w.dir) // the name must be durable before a record it holds is acknowledged
	w.f = f
	return nil
}

// appendAll stages every record into one group commit and blocks until the
// whole batch is durable: a fleet-wide observation joins a single fsync no
// matter how many objects it touches. Records land in the segment in
// argument order, matching the per-object track order the caller staged.
func (w *wal) appendAll(recs []walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	w.mu.Lock()
	if w.f == nil {
		w.mu.Unlock()
		return errors.New("store: wal closed")
	}
	if w.broken {
		w.mu.Unlock()
		return errWALBroken
	}
	var b *walBatch
	for _, r := range recs {
		b = w.stageLocked(r.id, r.offset, r.pts)
	}
	return w.commit(b)
}

// stageLocked encodes one record — length prefix, payload, CRC — straight
// into the current batch's buffer, creating the batch when this is its
// first record. Both the batch buffer and the payload scratch are reused
// across commits, so steady-state staging allocates nothing per record.
// Caller holds w.mu.
func (w *wal) stageLocked(id string, offset int, pts []hpm.Point) *walBatch {
	b := w.cur
	if b == nil {
		b = &walBatch{buf: w.spare[:0], done: make(chan struct{})}
		w.spare = nil
		w.cur = b
	}
	var u [binary.MaxVarintLen64]byte
	// Payload first, so its length can prefix it.
	p := w.scratch[:0]
	p = append(p, u[:binary.PutUvarint(u[:], uint64(len(id)))]...)
	p = append(p, id...)
	p = append(p, u[:binary.PutUvarint(u[:], uint64(offset))]...)
	p = append(p, u[:binary.PutUvarint(u[:], uint64(len(pts)))]...)
	for _, pt := range pts {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(pt.X))
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(pt.Y))
	}
	w.scratch = p
	b.buf = append(b.buf, u[:binary.PutUvarint(u[:], uint64(len(p)))]...)
	b.buf = append(b.buf, p...)
	b.buf = binary.LittleEndian.AppendUint32(b.buf, crc32.Checksum(p, walCRC))
	w.records.Add(1)
	return b
}

// commit makes b durable and returns its outcome. Called with w.mu held;
// releases it. If no leader is flushing, the caller becomes leader: it
// writes and fsyncs the batch, releases the batch's waiters, and keeps
// draining batches staged by followers while it was writing (those
// followers are parked on their batch's barrier and cannot elect
// themselves). Otherwise the caller is a follower and blocks until the
// leader flushes the batch it staged into.
func (w *wal) commit(b *walBatch) error {
	if w.writing {
		w.mu.Unlock()
		<-b.done
		return b.err
	}
	w.writing = true
	for w.cur != nil {
		cur := w.cur
		w.cur = nil
		f := w.f
		broken := w.broken
		w.mu.Unlock()
		var broke bool
		if broken {
			// A batch staged between a failed write and the leader's next
			// loop turn: appending it would land past the torn record, so
			// fail it without touching the segment. No onFlush — the flush
			// that broke the segment already reported the disk error.
			cur.err = errWALBroken
		} else {
			cur.err, broke = w.flush(f, cur.buf)
			// The degradation callback runs before waiters are released, so
			// a failing appender observes the store already flipped
			// read-only and can wrap its error as ErrDegraded.
			if w.onFlush != nil {
				w.onFlush(cur.err, broke)
			}
		}
		close(cur.done)
		w.mu.Lock()
		if broke {
			w.broken = true
		}
		if w.spare == nil {
			w.spare = cur.buf[:0] // recycle for the next batch
		}
	}
	w.writing = false
	w.flushed.Broadcast()
	w.mu.Unlock()
	// The leader's own batch was the first one drained; err is stable
	// once done is closed.
	return b.err
}

// flush writes one batch and, in sync mode, fsyncs it. Runs without w.mu:
// rotate and close wait for writing to clear, so f stays valid. broke
// reports a write failure — the segment tail is untrusted afterwards and
// the caller must stop appending to it; sync failures leave the bytes
// whole, so they are returned without breaking the segment.
func (w *wal) flush(f *os.File, buf []byte) (err error, broke bool) {
	w.batches.Add(1)
	if w.fault != nil {
		if ferr := w.fault(faultinject.OpDiskFull); ferr != nil {
			return fmt.Errorf("store: wal append: %w", ferr), true
		}
	}
	if _, werr := f.Write(buf); werr != nil {
		return fmt.Errorf("store: wal append: %w", werr), true
	}
	if w.sync {
		if w.fault != nil {
			if ferr := w.fault(faultinject.OpWALSyncLatency); ferr != nil {
				return fmt.Errorf("store: wal sync: %w", ferr), false
			}
			if ferr := w.fault(faultinject.OpWALSyncError); ferr != nil {
				return fmt.Errorf("store: wal sync: %w", ferr), false
			}
		}
		w.fsyncs.Add(1)
		if serr := f.Sync(); serr != nil {
			return fmt.Errorf("store: wal sync: %w", serr), false
		}
	}
	return nil, false
}

// quiesceLocked blocks until no leader is flushing. Batches cannot be
// staged without immediately electing or joining a leader under the same
// mu hold, so once writing clears nothing is staged either. Caller holds
// w.mu.
func (w *wal) quiesceLocked() {
	for w.writing {
		w.flushed.Wait()
	}
}

// stats returns the append/commit counters: records staged, group commits
// written, fsyncs issued.
func (w *wal) stats() (records, batches, fsyncs uint64) {
	return w.records.Load(), w.batches.Load(), w.fsyncs.Load()
}

// rotate freezes the current segment and opens the next one, returning
// the full frozen list (oldest first) for the checkpoint to reclaim once
// its snapshot is durable.
func (w *wal) rotate() ([]string, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked() // group writes never straddle a segment boundary
	if w.f == nil {
		return nil, errors.New("store: wal closed")
	}
	if err := w.f.Sync(); err != nil {
		return nil, err
	}
	path := w.f.Name()
	if err := w.f.Close(); err != nil {
		return nil, err
	}
	w.frozen = append(w.frozen, path)
	if err := w.openSegmentLocked(); err != nil {
		w.f = nil
		return nil, err
	}
	return append([]string(nil), w.frozen...), nil
}

// reset abandons the current segment and opens a fresh one, clearing the
// broken flag: the recovery path after a degrade. The old segment may end
// in a torn record (a short write mid-batch), so before freezing it the
// tail is truncated back to its longest valid prefix — frozen segments are
// replayed strictly, and an unrepaired tear would read as corruption at
// the next Open. Records in the discarded tail were never acknowledged
// (their appenders got the write error), so truncation loses nothing.
//
// reset is retryable: a segment whose repair fails stays parked in retired
// (never frozen, never reclaimed) and is repaired on the next attempt, so
// a still-failing disk cannot leave a torn segment where a future replay
// would read it strictly. Until a reset succeeds, the damaged segment is
// the newest on disk, which the tolerant final-segment replay handles if
// the process dies first.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked()
	if w.f != nil {
		path := w.f.Name()
		// Best effort: the segment is being retired because the disk
		// already failed once, so sync/close errors don't block the reset.
		w.f.Sync()
		w.f.Close()
		w.f = nil
		w.retired = append(w.retired, path)
	}
	for len(w.retired) > 0 {
		if err := repairSegment(w.retired[0]); err != nil {
			return fmt.Errorf("store: wal reset: %w", err)
		}
		w.frozen = append(w.frozen, w.retired[0])
		w.retired = w.retired[1:]
	}
	if err := w.openSegmentLocked(); err != nil {
		return err
	}
	w.broken = false
	return nil
}

// repairSegment truncates path back to its longest prefix of valid
// records, erasing a torn tail left by a failed write.
func repairSegment(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	valid := 0
	for valid < len(data) {
		_, n, derr := decodeWALRecord(data[valid:])
		if derr != nil {
			break
		}
		valid += n
	}
	if valid == len(data) {
		return nil
	}
	return os.Truncate(path, int64(valid))
}

// reclaim deletes frozen segments made obsolete by a durable snapshot.
func (w *wal) reclaim(paths []string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	gone := make(map[string]bool, len(paths))
	for _, p := range paths {
		if err := os.Remove(p); err == nil || os.IsNotExist(err) {
			gone[p] = true
		}
	}
	kept := w.frozen[:0]
	for _, p := range w.frozen {
		if !gone[p] {
			kept = append(kept, p)
		}
	}
	w.frozen = kept
}

// close syncs and closes the current segment. Appends fail afterwards.
func (w *wal) close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.quiesceLocked() // let an in-flight group commit finish cleanly
	if w.f == nil {
		return nil
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// walRecord is one decoded WAL record.
type walRecord struct {
	id     string
	offset int
	pts    []hpm.Point
}

// replaySegment reads records from path, calling apply for each valid
// record in order. A torn or checksum-failing tail is tolerated only when
// final is set (the newest segment, where a crash mid-append lands): the
// segment is truncated back to its valid prefix so later replays see a
// clean log. The same damage in a frozen, fsynced segment is reported as
// corruption.
func replaySegment(path string, final bool, apply func(walRecord) error) (records int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	valid := 0 // byte length of the valid prefix
	for valid < len(data) {
		rec, n, derr := decodeWALRecord(data[valid:])
		if derr != nil {
			if !final {
				return records, fmt.Errorf("store: wal %s: corrupt record at byte %d: %w", filepath.Base(path), valid, derr)
			}
			// Torn tail: discard it and repair the segment in place so a
			// future replay (when this segment is no longer the newest)
			// does not mistake the tear for corruption.
			if terr := os.Truncate(path, int64(valid)); terr != nil {
				return records, fmt.Errorf("store: wal truncate torn tail: %w", terr)
			}
			return records, nil
		}
		if aerr := apply(rec); aerr != nil {
			return records, aerr
		}
		valid += n
		records++
	}
	return records, nil
}

// decodeWALRecord decodes one record from the front of data, returning it
// and the bytes consumed. Any shortfall or checksum mismatch is an error —
// the caller decides whether that means a torn tail or corruption.
func decodeWALRecord(data []byte) (walRecord, int, error) {
	plen, n := binary.Uvarint(data)
	if n <= 0 {
		return walRecord{}, 0, io.ErrUnexpectedEOF
	}
	if plen > maxWALRecord {
		return walRecord{}, 0, fmt.Errorf("implausible record length %d", plen)
	}
	total := n + int(plen) + 4
	if total > len(data) {
		return walRecord{}, 0, io.ErrUnexpectedEOF
	}
	payload := data[n : n+int(plen)]
	want := binary.LittleEndian.Uint32(data[n+int(plen):])
	if crc32.Checksum(payload, walCRC) != want {
		return walRecord{}, 0, errors.New("checksum mismatch")
	}

	// The lengths are compared without arithmetic on what the record
	// claims, which could wrap: a checksummed record is not a trusted one.
	idLen, m := binary.Uvarint(payload)
	if m <= 0 || idLen > uint64(len(payload)-m) {
		return walRecord{}, 0, errors.New("bad id length")
	}
	payload = payload[m:]
	id := string(payload[:idLen])
	payload = payload[idLen:]
	offset, m := binary.Uvarint(payload)
	if m <= 0 || offset > math.MaxInt {
		return walRecord{}, 0, errors.New("bad offset")
	}
	payload = payload[m:]
	count, m := binary.Uvarint(payload)
	if m <= 0 {
		return walRecord{}, 0, errors.New("bad point count")
	}
	payload = payload[m:]
	if count > uint64(len(payload))/16 || uint64(len(payload)) != count*16 {
		return walRecord{}, 0, fmt.Errorf("point bytes %d != 16×%d", len(payload), count)
	}
	pts := make([]hpm.Point, count)
	for i := range pts {
		pts[i] = hpm.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(payload[i*16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(payload[i*16+8:])),
		)
	}
	return walRecord{id: id, offset: int(offset), pts: pts}, total, nil
}
