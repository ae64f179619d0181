package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"hpm"
	"hpm/internal/pattern"
)

// The object-record codec: one object's track, training counters, model
// stream and Markov chain as a length-framed record. Segment files
// (snapshot.go) are the only container that holds records.

// objectSnapshot is one object's persisted state, captured atomically
// under the object's read lock so it can be encoded and written without
// holding any lock at all. The track slice aliases the live backing
// array, which is safe: appends never mutate [:len], and trims replace
// the slice with a fresh copy instead of shifting in place. The model is
// the one thing that mutates in place (Extend, under the write lock), so
// it is serialized into its own buffer during the capture.
type objectSnapshot struct {
	id      string
	base    int
	modeled int
	track   []hpm.Point
	model   []byte // serialized predictor; nil when untrained
	chain   []byte // serialized Markov chain; nil when disabled
}

// snapshotObject captures one object's persisted state under its read
// lock. Queries against the object proceed concurrently; its writers are
// blocked only for the capture itself (the model serialize), never for
// track encoding or file I/O.
func snapshotObject(id string, obj *object) (objectSnapshot, error) {
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	snap := objectSnapshot{
		id:      id,
		base:    obj.base,
		modeled: obj.modeled,
		track:   obj.track,
	}
	if obj.predictor != nil {
		var buf bytes.Buffer
		if err := obj.predictor.Save(&buf); err != nil {
			return snap, fmt.Errorf("store: snapshot model for %q: %w", id, err)
		}
		snap.model = buf.Bytes()
		snap.chain = obj.predictor.Model().EncodeMarkov()
	}
	return snap, nil
}

// write encodes the captured object as one segment record. Runs without
// any lock.
func (snap objectSnapshot) write(bw *bufio.Writer) error {
	writeBytes(bw, []byte(snap.id))
	writeUvarint(bw, uint64(snap.base))
	writeUvarint(bw, uint64(len(snap.track)))
	for _, p := range snap.track {
		b := binary.LittleEndian.AppendUint64(bw.AvailableBuffer(), math.Float64bits(p.X))
		bw.Write(binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y)))
	}
	writeUvarint(bw, uint64(snap.modeled))
	writeUvarint(bw, 0) // reserved slot: written as 0, read and discarded
	if snap.model == nil {
		return bw.WriteByte(0)
	}
	if err := bw.WriteByte(1); err != nil {
		return err
	}
	// The model stream is self-delimiting (its own magic and trailer), so
	// it nests directly.
	if _, err := bw.Write(snap.model); err != nil {
		return err
	}
	// The Markov chain rides behind the model, length-prefixed; an empty
	// blob means the markov path was disabled at capture time.
	writeBytes(bw, snap.chain)
	return nil
}

// minRecordBytes is the fewest bytes a record takes: an empty id's length,
// base, track length, modeled, the reserved slot and the trained flag.
const minRecordBytes = 6

// readObject decodes the record at c into s, which must be the store that
// owns shard (the segment's): an id that hashes to any other shard is an
// error — the directory was written at another shard count, and loading it
// would chain its segments under the wrong shards at the next checkpoint.
// The record is read in place: the track from one view of its bytes, the
// model stream and the chain from the segment's own.
func readObject(c *pattern.Cursor, s *Store, shard int) error {
	idb := c.Blob(4096)
	if err := c.Err(); err != nil {
		return fmt.Errorf("store: read id: %w", err)
	}
	if got := int(shardIndex(string(idb))); got != shard {
		return fmt.Errorf("store: object %q belongs to shard %d, not %d (written at another shard count?)", idb, got, shard)
	}
	base := c.Uvarint()
	n := c.Uvarint()
	if err := c.Err(); err != nil {
		return fmt.Errorf("store: read track length: %w", err)
	}
	if n > uint64(c.Remaining()/16) {
		return fmt.Errorf("store: track of %d points cannot fit in %d bytes", n, c.Remaining())
	}
	raw := c.Bytes(16 * int(n))
	track := make([]hpm.Point, n)
	for i := range track {
		track[i] = hpm.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i:])),
			math.Float64frombits(binary.LittleEndian.Uint64(raw[16*i+8:])),
		)
	}
	modeled := c.Uvarint()
	c.Uvarint() // reserved slot (written as 0), read and discarded
	trained := c.Byte()
	if err := c.Err(); err != nil {
		return fmt.Errorf("store: read record tail: %w", err)
	}
	obj := s.newObject(string(idb))
	obj.track = track
	obj.life.loaded(int(base), int(modeled))
	if trained == 1 {
		p, k, err := hpm.Decode(c.Rest(), s.opts.Config.Period)
		if err != nil {
			return fmt.Errorf("store: load model for %q: %w", idb, err)
		}
		c.Skip(k)
		obj.predictor = p
		chain := c.Blob(1 << 30)
		if err := c.Err(); err != nil {
			return fmt.Errorf("store: read markov chain for %q: %w", idb, err)
		}
		if len(chain) == 0 || p.Model().LoadMarkov(chain) != nil {
			// Markov disabled at capture, or the chain configuration
			// changed since: re-fold the retained track (a no-op when the
			// path is disabled now).
			p.Model().RebuildMarkov(obj.base, obj.track)
		}
	}
	// Populate the shard directly: replay and load run before the store
	// is shared, but take the shard lock anyway to keep the invariant.
	sh := &s.shards[shard]
	sh.mu.Lock()
	sh.objects[string(idb)] = obj
	sh.mu.Unlock()
	return nil
}

func writeUvarint(bw *bufio.Writer, v uint64) {
	bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v))
}

func writeBytes(bw *bufio.Writer, b []byte) {
	writeUvarint(bw, uint64(len(b)))
	bw.Write(b)
}
