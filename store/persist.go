package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"hpm"
	"hpm/internal/pattern"
)

// Snapshot persistence: a Store serializes its options, every object's
// track, and every trained model, so a service can restart without
// re-mining its fleet. Format: magic+version, options JSON, then one
// length-prefixed record per object.

const (
	snapshotMagic = "HPMS"
	// snapshotVersion 2 added the per-object track base — the absolute
	// timestamp of track[0], nonzero once the retention policy trims
	// history. Version-1 snapshots load with base 0. Version 3 is taken by
	// the sharded-manifest marker (manifestVersion); version 4 appends a
	// length-prefixed Markov chain blob after each trained object's model.
	// Version-1/2 records load with the chain re-folded from the track.
	snapshotVersion = 4
)

// Save writes a snapshot of the whole store in the single-file (v2)
// format. Each object is captured under its read lock — concurrent
// queries are never blocked, and that object's writers wait only for the
// capture, not for the encode or the I/O behind it.
func (s *Store) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(snapshotVersion); err != nil {
		return err
	}
	oj, err := json.Marshal(s.opts)
	if err != nil {
		return fmt.Errorf("store: encode options: %w", err)
	}
	writeBytes(bw, oj)

	ids := s.Objects()
	writeUvarint(bw, uint64(len(ids)))
	for _, id := range ids {
		obj, err := s.get(id, false)
		if err != nil {
			continue // removed concurrently; the count is a cap, see Load
		}
		snap, err := snapshotObject(id, obj)
		if err != nil {
			return err
		}
		if err := snap.write(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

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

// write encodes the captured object in the format shared by v2 snapshot
// streams and v3 segment files. Runs without any lock.
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
	// v4: the Markov chain rides behind the model, length-prefixed; an
	// empty blob means the markov path was disabled at capture time.
	writeBytes(bw, snap.chain)
	return nil
}

// Load reads a snapshot written by Save and returns a ready store.
func Load(r io.Reader) (*Store, error) {
	s, err := loadStream(r)
	if err != nil {
		return nil, err
	}
	// Tracks and models were restored without passing through the observe
	// path; recompute the fleet index from the recovered state.
	s.rebuildIndex()
	return s, nil
}

// loadStream is Load without the index rebuild, for callers (Open) that
// replay a WAL on top and rebuild once at the end. On a decode error the
// partially built store is closed — its background machinery (train
// pool, probe channel) must not outlive the failed load.
func loadStream(r io.Reader) (*Store, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(snapshotMagic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("store: read header: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: not a snapshot (magic %q)", head[:len(snapshotMagic)])
	}
	version := int(head[len(snapshotMagic)])
	if version < 1 || version > snapshotVersion || version == manifestVersion {
		return nil, fmt.Errorf("store: unsupported snapshot version %d", version)
	}
	oj, err := pattern.ReadBlob(br, 1<<20)
	if err != nil {
		return nil, fmt.Errorf("store: read options: %w", err)
	}
	var opts Options
	if err := json.Unmarshal(oj, &opts); err != nil {
		return nil, fmt.Errorf("store: decode options: %w", err)
	}
	s, err := New(opts)
	if err != nil {
		return nil, err
	}

	count, err := binary.ReadUvarint(br)
	if err != nil {
		s.Close()
		return nil, fmt.Errorf("store: read object count: %w", err)
	}
	if count > 1<<24 {
		s.Close()
		return nil, fmt.Errorf("store: implausible object count %d", count)
	}
	for i := uint64(0); i < count; i++ {
		if err := readObject(br, s, version); err != nil {
			// A Save racing Remove can legitimately write fewer records
			// than counted; only clean EOF at a record boundary is fine.
			if err == io.EOF {
				break
			}
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func readObject(br *bufio.Reader, s *Store, version int) error {
	idb, err := pattern.ReadBlob(br, 4096)
	if err != nil {
		return err
	}
	var base uint64
	if version >= 2 {
		if base, err = binary.ReadUvarint(br); err != nil {
			return fmt.Errorf("store: read track base: %w", err)
		}
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
		var chain []byte
		if version >= 4 {
			if chain, err = pattern.ReadBlob(br, 1<<30); err != nil {
				return fmt.Errorf("store: read markov chain for %q: %w", idb, err)
			}
		}
		if len(chain) == 0 || p.Model().LoadMarkov(chain) != nil {
			// Pre-v4 record, markov disabled at capture, or the chain
			// configuration changed since: re-fold the retained track (a
			// no-op when the path is disabled now).
			p.Model().RebuildMarkov(obj.base, obj.track)
		}
	}
	// Populate the shard directly: replay and load run before the store
	// is shared, but take the shard lock anyway to keep the invariant.
	sh := s.shard(string(idb))
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
