package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzLoadSegment: the segment decoder — the one thing between a directory's
// bytes and the store — never panics and never allocates past what its
// input can pay for, whatever lengths the input claims. The input is a
// segment's payload; the harness seals it (CRC trailer, the manifest entry
// its own header implies), so every byte of it reaches the decoder. A
// payload it accepts lands in its own shard only and re-encodes to bytes
// that decode and re-encode to themselves. (Not to the input: the decoder
// reads non-minimal varints, records in any order and a repeated id, and
// the encoder writes none of those. The golden segments, which the encoder
// wrote, are held to their exact bytes by TestGoldenDirectory.) The seeds —
// the golden segments, cuts and bit flips of them, and the hostile inputs
// of the decoder's safety tests, among them a model stream stating a period
// of 2^40 — run under plain go test.
func FuzzLoadSegment(f *testing.F) {
	segs, err := filepath.Glob(filepath.Join(goldenDir, segmentPattern))
	if err != nil || len(segs) == 0 {
		f.Fatalf("no golden segments (err %v)", err)
	}
	for _, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		body := data[:len(data)-4]
		f.Add(body)
		for _, cut := range []int{5, 7, len(body) / 3, len(body) - 40, len(body) - 1} {
			if cut > 0 && cut < len(body) {
				f.Add(body[:cut])
			}
		}
		for at := 0; at < 12; at++ {
			flipped := bytes.Clone(body)
			flipped[len(flipped)-1-at*len(flipped)/12] ^= 1 << (at % 8)
			f.Add(flipped)
		}
		// What this target found first: four bytes inside the trained
		// object's chain blob turned into a successor count of 2^28, by
		// which markov.Decode sized a map (10 GB for an 8 KB segment).
		if i := bytes.LastIndex(body, []byte("\x01\x03\x04\x02")); i > 0 {
			claim := bytes.Clone(body)
			copy(claim[i:], "\x90\x90\x90\x90")
			f.Add(claim)
		}
	}
	for _, body := range garbageSegments {
		f.Add(body)
	}
	track, _ := hostileTrackLength(f)
	f.Add(track)
	chain, _ := hostileChainLength(f)
	f.Add(chain)
	f.Add(chain[:len(chain)*6/10])
	hostile, _ := hostilePeriod(f)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, body []byte) {
		// The entry a manifest would hold for this payload: whatever shard
		// and count its header names. One that names none fails either way.
		shard, objects := segmentHeader(body)
		if shard >= numShards {
			return // parseManifest admits no such entry
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := decodeSealed(t, body, int(shard), int(objects))
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20+1024*uint64(len(body)) {
			t.Fatalf("%d payload bytes allocated %d (err %v)", len(body), grew, err)
		}
		if err != nil {
			return
		}
		defer s.Close()
		for i := range s.shards {
			if n := len(s.shards[i].objects); n > 0 && (i != int(shard) || uint64(n) > objects) {
				t.Fatalf("a segment of %d objects for shard %d put %d into shard %d", objects, shard, n, i)
			}
		}
		once, held := shardBody(t, s, int(shard))
		again, err := decodeSealed(t, once, int(shard), held)
		if err != nil {
			t.Fatalf("an accepted segment's re-encoding is refused: %v", err)
		}
		defer again.Close()
		if twice, _ := shardBody(t, again, int(shard)); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(once), len(twice))
		}
	})
}

// FuzzParseManifest: the manifest decoder never panics, and a manifest it
// accepts states a positive period and names at most one segment per shard,
// ascending, each a bare file name in a shard the store has; every other one
// is refused there, before Open has built a store. Seeded with the golden
// manifest (a whole Options in its JSON blob), cuts and bit flips of it, the
// same manifest restated with the period-only blob this build writes, and the
// safety tests' garbage: a blob that is not JSON, one stating no period, one
// stating a negative one.
func FuzzParseManifest(f *testing.F) {
	data, err := os.ReadFile(filepath.Join(goldenDir, snapshotFile))
	if err != nil {
		f.Fatal(err)
	}
	payload := data[:len(data)-4]
	f.Add(payload)
	for _, cut := range []int{4, 5, len(payload) / 2, len(payload) - 30, len(payload) - 1} {
		f.Add(payload[:cut])
	}
	for at := 0; at < 16; at++ {
		flipped := bytes.Clone(payload)
		flipped[len(flipped)-1-at*len(flipped)/16] ^= 1 << (at % 8)
		f.Add(flipped)
	}
	head := len(snapshotMagic) + 1
	n, w := binary.Uvarint(payload[head:])
	restated := append(bytes.Clone(payload[:head]), byte(len(periodBlob)))
	f.Add(append(append(restated, periodBlob...), payload[head+w+int(n):]...))
	for _, in := range garbageManifests {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		p, m, err := parseManifest(payload)
		if err != nil {
			if p != 0 || m != nil {
				t.Fatalf("a refused manifest (%v) still yields period %d and %+v", err, p, m)
			}
			return
		}
		if p <= 0 || len(m.segments) > numShards {
			t.Fatalf("%d payload bytes yield period %d and %d segments", len(payload), p, len(m.segments))
		}
		for i, sg := range m.segments {
			if sg.shard < 0 || sg.shard >= numShards || (i > 0 && sg.shard <= m.segments[i-1].shard) {
				t.Fatalf("segment entry %d names shard %d after %+v", i, sg.shard, m.segments[:i])
			}
			if sg.name != filepath.Base(sg.name) {
				t.Fatalf("segment name %q leaves the directory", sg.name)
			}
		}
	})
}

// FuzzDecodeWALRecord: the WAL record decoder, which replaySegment runs on
// every segment inside Open, never panics and never allocates past what its
// input can pay for, whatever lengths a record claims; a record it accepts
// re-encodes to bytes that decode to the same record. The input is a
// record's payload; the harness seals it (length prefix, CRC) the way the
// WAL writes one, so every byte of it reaches the payload decoder. Seeded
// with real records, cuts and bit flips of them, and hostile payloads
// whose claimed lengths used to wrap the decoder's arithmetic and panic.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, rec := range []walRecord{
		{id: "bus-1", offset: 0, pts: walPoints(0, 3)},
		{id: "", offset: 1 << 40, pts: nil},
		{id: "fleet/object-0042", offset: 7, pts: walPoints(100, 9)},
	} {
		enc := encodeWALRecord(rec)
		_, n := binary.Uvarint(enc)
		payload := enc[n : len(enc)-4]
		f.Add(payload)
		for _, cut := range []int{1, len(payload) / 2, len(payload) - 1} {
			if cut > 0 && cut < len(payload) {
				f.Add(payload[:cut])
			}
		}
		for at := 0; at < 6; at++ {
			flipped := bytes.Clone(payload)
			flipped[at*len(flipped)/6] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	for _, payload := range hostileWALPayloads() {
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sealed := sealWALRecord(payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec, n, err := decodeWALRecord(sealed)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*uint64(len(sealed)) {
			t.Fatalf("%d record bytes allocated %d (err %v)", len(sealed), grew, err)
		}
		if err != nil {
			return
		}
		if n != len(sealed) {
			t.Fatalf("a sealed record of %d bytes decoded as %d", len(sealed), n)
		}
		once := encodeWALRecord(rec)
		back, n, err := decodeWALRecord(once)
		if err != nil || n != len(once) {
			t.Fatalf("an accepted record's re-encoding is refused (%d of %d bytes): %v", n, len(once), err)
		}
		if twice := encodeWALRecord(back); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding %+v decodes to %+v", rec, back)
		}
	})
}

// encodeWALRecord is what the WAL writes for rec.
func encodeWALRecord(rec walRecord) []byte {
	return (&wal{}).stageLocked(rec.id, rec.offset, rec.pts).buf
}

// sealWALRecord frames a payload as the WAL does: its length, the payload
// and its CRC.
func sealWALRecord(payload []byte) []byte {
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint32(rec, crc32.Checksum(payload, walCRC))
}

// hostileWALPayloads are payloads whose claims a checksum does not vouch
// for: 2^60+1 points over 16 point bytes (the count times 16 wraps to 16),
// an id of 2^64-1 bytes (its end wraps to before its start), and an offset
// past math.MaxInt.
func hostileWALPayloads() [][]byte {
	head := append(binary.AppendUvarint(nil, 3), "bus"...)
	points := binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(head), 7), 1<<60+1)
	points = append(points, make([]byte, 16)...)
	id := append(binary.AppendUvarint(nil, math.MaxUint64), "bus\x07\x00"...)
	offset := binary.AppendUvarint(binary.AppendUvarint(bytes.Clone(head), 1<<63), 0)
	return [][]byte{points, id, offset}
}
