package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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
	id           string
	base         int
	modeled      int
	sinceRetrain int
	track        []hpm.Point
	model        []byte // serialized predictor; nil when untrained
	chain        []byte // serialized Markov chain; nil when disabled
}

// snapshotObject captures one object's persisted state under its read
// lock. Queries against the object proceed concurrently; its writers are
// blocked only for the capture itself (the model serialize), never for
// track encoding or file I/O.
func snapshotObject(id string, obj *object) (objectSnapshot, error) {
	obj.mu.RLock()
	defer obj.mu.RUnlock()
	snap := objectSnapshot{
		id:           id,
		base:         obj.base,
		modeled:      obj.modeled,
		sinceRetrain: obj.sinceRetrain,
		track:        obj.track,
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
	var fb [8]byte
	for _, p := range snap.track {
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(p.X))
		bw.Write(fb[:])
		binary.LittleEndian.PutUint64(fb[:], math.Float64bits(p.Y))
		bw.Write(fb[:])
	}
	writeUvarint(bw, uint64(snap.modeled))
	writeUvarint(bw, uint64(snap.sinceRetrain))
	if snap.model == nil {
		return writeByteChecked(bw, 0)
	}
	if err := writeByteChecked(bw, 1); err != nil {
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

// readObject decodes one record into s, which must be the store that owns
// shard (the segment's): an id that hashes to any other shard is an error —
// the directory was written at another shard count, and loading it would
// chain its segments under the wrong shards at the next checkpoint.
func readObject(br *bufio.Reader, s *Store, shard int) error {
	idb, err := pattern.ReadBlob(br, 4096)
	if err != nil {
		return err
	}
	if got := int(shardIndex(string(idb))); got != shard {
		return fmt.Errorf("store: object %q belongs to shard %d, not %d (written at another shard count?)", idb, got, shard)
	}
	base, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: read track base: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: read track length: %w", err)
	}
	if n > 1<<30 {
		return fmt.Errorf("store: implausible track length %d", n)
	}
	// The length is a claim until its bytes arrive: grow as points decode.
	track := make([]hpm.Point, 0, min(n, 4096))
	var fb [16]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, fb[:]); err != nil {
			return fmt.Errorf("store: read track: %w", err)
		}
		track = append(track, hpm.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(fb[0:])),
			math.Float64frombits(binary.LittleEndian.Uint64(fb[8:])),
		))
	}
	modeled, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: read modeled: %w", err)
	}
	sinceRetrain, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("store: read sinceRetrain: %w", err)
	}
	trained, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("store: read trained flag: %w", err)
	}
	obj := s.newObject(string(idb))
	obj.base = int(base)
	obj.track = track
	obj.modeled = int(modeled)
	obj.sinceRetrain = int(sinceRetrain)
	if trained == 1 {
		p, err := hpm.Load(br)
		if err != nil {
			return fmt.Errorf("store: load model for %q: %w", idb, err)
		}
		obj.predictor = p
		chain, err := pattern.ReadBlob(br, 1<<30)
		if err != nil {
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
	var buf [binary.MaxVarintLen64]byte
	bw.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func writeBytes(bw *bufio.Writer, b []byte) {
	writeUvarint(bw, uint64(len(b)))
	bw.Write(b)
}

func writeByteChecked(bw *bufio.Writer, b byte) error {
	return bw.WriteByte(b)
}
