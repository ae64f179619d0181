package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"hpm/internal/faultinject"
	"hpm/internal/parallel"
	"hpm/internal/pattern"
)

// The snapshot containers. A durable store's directory holds a small
// manifest (snapshotFile) plus one segment file per non-empty shard:
//
//	manifest := "HPMS" 0x03 period-json uvarint(epoch)
//	            uvarint(nsegments) nsegments×segment-entry  crc32c
//	entry    := uvarint(shard) uvarint(objects) name uvarint(size) uint32(crc)
//	segment  := "HPMG" 0x02 uvarint(shard) uvarint(count)
//	            count×object-record  crc32c
//
// (period-json — {"Config":{"Period":N}}, all the directory fixes — and name
// are uvarint-length-prefixed; object records are persist.go's; every file
// carries a whole-file CRC32-C trailer.) This is the one layout Open reads
// and Checkpoint writes: each decoder compares its version byte with == and
// refuses anything else by number (DESIGN.md, "Upgrading an older
// directory").
//
// Segment files are written to their final, epoch-stamped names and are
// invisible until a manifest referencing them is renamed into place — the
// manifest commit is the checkpoint's atomic point. An incremental
// checkpoint rewrites only dirty shards' segments and chains the previous
// epoch's segments for clean shards, so its cost is O(changed objects),
// not O(fleet). Segments no longer referenced are deleted after the
// commit; leftovers from a crashed checkpoint are swept at Open.

const (
	snapshotMagic   = "HPMS"
	manifestVersion = 3

	segmentMagic   = "HPMG"
	segmentVersion = 2
	// segmentFormat names a segment file by shard and epoch; the glob
	// pattern matches all of them for the orphan sweep at Open.
	segmentFormat  = "seg-%05d-%010d.hpms"
	segmentPattern = "seg-*.hpms"
)

// retired is a container decoder's answer to a version byte that is not its
// own.
func retired(what string, found byte, want int) error {
	return fmt.Errorf("%s version %d, this build reads %d only (DESIGN.md, \"Upgrading an older directory\")", what, found, want)
}

// snapSegment is one segment's manifest entry: which shard it holds, how
// many objects it encodes, and the size and checksum that pin the file's
// exact bytes — a missing or mismatched segment fails recovery loudly
// instead of silently dropping a shard's objects.
type snapSegment struct {
	shard   int
	objects int
	name    string
	size    int64
	crc     uint32
}

// snapManifest is the decoded manifest: the snapshot epoch (bumped by
// every checkpoint) and the live segments, ascending by shard.
type snapManifest struct {
	epoch    uint64
	segments []snapSegment
}

// bytes is the total on-disk footprint of the manifest's segments.
func (m *snapManifest) segmentBytes() int64 {
	var n int64
	for _, sg := range m.segments {
		n += sg.size
	}
	return n
}

// writeShardSegment encodes one shard's objects into an epoch-stamped
// segment file: header, one record per object (captured under each
// object's read lock, encoded outside it), CRC trailer, fsync. Empty
// shards produce no file and a nil entry. The file sits at its final name
// but stays invisible to recovery until a manifest references it.
//
// The objects are listed once, under the shard lock, and exactly those are
// encoded, so the header's count is the record count. An object removed
// after the listing is written anyway, which is harmless: its tombstone
// sits in the WAL segment this checkpoint does not reclaim, so replay
// erases it again, and it re-marked the shard dirty under the snapshot
// gate, so the next checkpoint re-encodes without it.
func (s *Store) writeShardSegment(shardIdx int, epoch uint64) (*snapSegment, error) {
	if err := s.fault(faultinject.OpSnapshotShard); err != nil {
		return nil, fmt.Errorf("store: snapshot shard %d: %w", shardIdx, err)
	}
	sh := &s.shards[shardIdx]
	sh.mu.RLock()
	objs := make([]*object, 0, len(sh.objects))
	for _, obj := range sh.objects {
		objs = append(objs, obj)
	}
	sh.mu.RUnlock()
	if len(objs) == 0 {
		return nil, nil
	}

	name := fmt.Sprintf(segmentFormat, shardIdx, epoch)
	path := filepath.Join(s.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	cw := &crcWriter{w: f}
	bw := bufio.NewWriter(cw)
	// Disk-full fault point: a failure anywhere in the segment write aborts
	// the checkpoint before the manifest commit, so the previous snapshot
	// and every WAL segment stay authoritative.
	err = s.fault(faultinject.OpDiskFull)
	if err == nil {
		err = writeSegment(bw, shardIdx, objs)
	}
	if err == nil {
		err = bw.Flush()
	}
	crc := cw.crc
	if err == nil {
		var trailer [4]byte
		binary.LittleEndian.PutUint32(trailer[:], crc)
		_, err = f.Write(trailer[:])
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", name, err)
	}
	return &snapSegment{shard: shardIdx, objects: len(objs), name: name, size: fi.Size(), crc: crc}, nil
}

// writeSegment encodes a segment's header and one record per object, ids
// ascending: deterministic bytes for a given fleet state.
func writeSegment(bw *bufio.Writer, shardIdx int, objs []*object) error {
	sort.Slice(objs, func(i, j int) bool { return objs[i].id < objs[j].id })
	bw.WriteString(segmentMagic)
	bw.WriteByte(segmentVersion)
	writeUvarint(bw, uint64(shardIdx))
	writeUvarint(bw, uint64(len(objs)))
	for _, obj := range objs {
		snap, err := snapshotObject(obj.id, obj)
		if err != nil {
			return err
		}
		if err := snap.write(bw); err != nil {
			return err
		}
	}
	return nil
}

// writeManifest atomically commits a manifest: temp file, CRC trailer,
// fsync, rename over snapshotFile, directory sync. Returns the manifest
// file's size for the snapshot-footprint gauge. Consults the manifest and
// disk-full fault points before writing anything.
func (s *Store) writeManifest(m *snapManifest) (int64, error) {
	if err := s.fault(faultinject.OpManifest); err != nil {
		return 0, fmt.Errorf("store: manifest: %w", err)
	}
	if err := s.fault(faultinject.OpDiskFull); err != nil {
		return 0, fmt.Errorf("store: manifest: %w", err)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(manifestVersion)
	writeBytes(bw, fmt.Appendf(nil, `{"Config":{"Period":%d}}`, s.opts.Config.Period))
	writeUvarint(bw, m.epoch)
	writeUvarint(bw, uint64(len(m.segments)))
	for _, sg := range m.segments {
		writeUvarint(bw, uint64(sg.shard))
		writeUvarint(bw, uint64(sg.objects))
		writeBytes(bw, []byte(sg.name))
		writeUvarint(bw, uint64(sg.size))
		var cb [4]byte
		binary.LittleEndian.PutUint32(cb[:], sg.crc)
		bw.Write(cb[:])
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc32.Checksum(buf.Bytes(), walCRC))
	buf.Write(trailer[:])

	path := filepath.Join(s.dir, snapshotFile)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(buf.Bytes())
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("store: manifest %s: %w", path, err)
	}
	syncDir(s.dir)
	return int64(buf.Len()), nil
}

// parseManifest decodes a manifest payload (CRC already verified and
// stripped) into the directory's period and the segment list: at most one
// segment per shard, ascending, as checkpoint writes them. The period is all
// that is read of the JSON blob; a manifest written before the blob shrank
// to it carries a whole Options there, and the rest is ignored.
func parseManifest(payload []byte) (period int, m *snapManifest, err error) {
	if len(payload) <= len(snapshotMagic) || string(payload[:len(snapshotMagic)]) != snapshotMagic {
		return 0, nil, fmt.Errorf("store: not a snapshot manifest (magic %q)", payload[:min(len(payload), len(snapshotMagic))])
	}
	if v := payload[len(snapshotMagic)]; v != manifestVersion {
		return 0, nil, retired("store: snapshot", v, manifestVersion)
	}
	br := bufio.NewReader(bytes.NewReader(payload[len(snapshotMagic)+1:]))
	oj, err := pattern.ReadBlob(br, 1<<20)
	if err != nil {
		return 0, nil, fmt.Errorf("store: read options: %w", err)
	}
	var stated struct{ Config struct{ Period int } }
	if err := json.Unmarshal(oj, &stated); err != nil {
		return 0, nil, fmt.Errorf("store: decode options: %w", err)
	}
	if period = stated.Config.Period; period <= 0 {
		return 0, nil, fmt.Errorf("store: manifest states period %d, want a positive one", period)
	}
	m = &snapManifest{}
	if m.epoch, err = binary.ReadUvarint(br); err != nil {
		return 0, nil, fmt.Errorf("store: read epoch: %w", err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("store: read segment count: %w", err)
	}
	if n > numShards {
		return 0, nil, fmt.Errorf("store: implausible segment count %d", n)
	}
	for i := uint64(0); i < n; i++ {
		var sg snapSegment
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, nil, fmt.Errorf("store: read segment shard: %w", err)
		}
		if v >= numShards || (i > 0 && int(v) <= m.segments[i-1].shard) {
			return 0, nil, fmt.Errorf("store: segment entry %d names shard %d: want ascending shards below %d (written at another shard count?)", i, v, numShards)
		}
		sg.shard = int(v)
		if v, err = binary.ReadUvarint(br); err != nil {
			return 0, nil, fmt.Errorf("store: read segment objects: %w", err)
		}
		sg.objects = int(v)
		name, err := pattern.ReadBlob(br, 4096)
		if err != nil {
			return 0, nil, fmt.Errorf("store: read segment name: %w", err)
		}
		// Segment names resolve relative to the manifest's directory; a
		// path separator in one would escape it.
		if filepath.Base(string(name)) != string(name) {
			return 0, nil, fmt.Errorf("store: segment name %q is not a bare file name", name)
		}
		sg.name = string(name)
		if v, err = binary.ReadUvarint(br); err != nil {
			return 0, nil, fmt.Errorf("store: read segment size: %w", err)
		}
		sg.size = int64(v)
		var cb [4]byte
		if _, err := io.ReadFull(br, cb[:]); err != nil {
			return 0, nil, fmt.Errorf("store: read segment crc: %w", err)
		}
		sg.crc = binary.LittleEndian.Uint32(cb[:])
		m.segments = append(m.segments, sg)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return 0, nil, errors.New("store: bytes behind the last segment entry")
	}
	return period, m, nil
}

// loadSegments restores every manifest segment into s, in parallel. Each segment maps to exactly one shard, so workers insert into
// disjoint shard maps. Any missing, truncated or corrupt segment is a
// loud error — recovery never silently drops a shard's objects.
func (s *Store) loadSegments(dir string, m *snapManifest) error {
	errs := make([]error, len(m.segments))
	parallel.For(len(m.segments), s.workers, func(i int) {
		errs[i] = s.loadSegment(dir, m.segments[i])
	})
	return errors.Join(errs...)
}

// loadSegment reads one segment file and decodes its objects into the
// store.
func (s *Store) loadSegment(dir string, sg snapSegment) error {
	data, err := os.ReadFile(filepath.Join(dir, sg.name))
	if err == nil {
		err = s.decodeSegment(data, sg)
	}
	if err != nil {
		return fmt.Errorf("store: segment %s: %w", sg.name, err)
	}
	return nil
}

// decodeSegment verifies a segment file's bytes against its manifest entry
// (size, whole-file CRC, shard, object count) and decodes its records into
// the entry's shard.
func (s *Store) decodeSegment(data []byte, sg snapSegment) error {
	if int64(len(data)) != sg.size {
		return fmt.Errorf("size %d, manifest says %d (corrupt or truncated)", len(data), sg.size)
	}
	if len(data) < len(segmentMagic)+1+4 {
		return errors.New("too short")
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	crc := crc32.Checksum(payload, walCRC)
	if crc != binary.LittleEndian.Uint32(trailer) || crc != sg.crc {
		return errors.New("checksum mismatch (corrupt or truncated)")
	}
	if string(payload[:len(segmentMagic)]) != segmentMagic {
		return fmt.Errorf("not a segment (magic %q)", payload[:len(segmentMagic)])
	}
	if v := payload[len(segmentMagic)]; v != segmentVersion {
		return retired("segment", v, segmentVersion)
	}
	br := bufio.NewReader(bytes.NewReader(payload[len(segmentMagic)+1:]))
	shardIdx, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("read shard: %w", err)
	}
	if shardIdx != uint64(sg.shard) {
		return fmt.Errorf("holds shard %d, manifest says %d", shardIdx, sg.shard)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("read object count: %w", err)
	}
	if count != uint64(sg.objects) {
		return fmt.Errorf("holds %d objects, manifest says %d", count, sg.objects)
	}
	for i := uint64(0); i < count; i++ {
		if err := readObject(br, s, sg.shard); err != nil {
			return err
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return errors.New("bytes behind the last record")
	}
	return nil
}

// sweepSegments deletes segment files the manifest does not reference:
// leftovers of a checkpoint that crashed after writing segments but
// before committing its manifest, or of a failed post-commit cleanup.
// With a nil manifest (a fresh store) every segment file is an orphan.
func sweepSegments(dir string, m *snapManifest) {
	matches, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil || len(matches) == 0 {
		return
	}
	live := make(map[string]bool)
	if m != nil {
		for _, sg := range m.segments {
			live[sg.name] = true
		}
	}
	for _, p := range matches {
		if !live[filepath.Base(p)] {
			os.Remove(p)
		}
	}
}
