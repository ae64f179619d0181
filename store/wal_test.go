package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hpm"
)

// walPoints builds a recognizable point run: (base, base+1), (base+1, base+2), ...
func walPoints(base, n int) []hpm.Point {
	pts := make([]hpm.Point, n)
	for i := range pts {
		pts[i] = hpm.Pt(float64(base+i), float64(base+i+1))
	}
	return pts
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []walRecord{
		{id: "bus-1", offset: 0, pts: walPoints(0, 3)},
		{id: "bus-2", offset: 0, pts: walPoints(100, 1)},
		{id: "bus-1", offset: 3, pts: walPoints(3, 5)},
	}
	for _, rec := range want {
		if err := w.appendAll([]walRecord{rec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	segs, _, err := walSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	var got []walRecord
	n, err := replaySegment(segs[0], true, func(r walRecord) error {
		got = append(got, r)
		return nil
	})
	if err != nil || n != len(want) {
		t.Fatalf("replayed %d records, err %v", n, err)
	}
	for i, rec := range got {
		if rec.id != want[i].id || rec.offset != want[i].offset || len(rec.pts) != len(want[i].pts) {
			t.Fatalf("record %d: %+v != %+v", i, rec, want[i])
		}
		for j, p := range rec.pts {
			if p != want[i].pts[j] {
				t.Fatalf("record %d point %d: %v != %v", i, j, p, want[i].pts[j])
			}
		}
	}
}

func TestWALTornTailToleratedAndRepaired(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := w.appendAll([]walRecord{{id: "bus", offset: i * 4, pts: walPoints(i*4, 4)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := walSegments(dir)
	path := segs[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Chop the file at every byte length inside the final record: replay
	// must keep the first two records and never error.
	recLen := len(data) / 3
	for cut := 2*recLen + 1; cut < len(data); cut++ {
		p := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := replaySegment(p, true, func(walRecord) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 2 {
			t.Fatalf("cut %d: replayed %d records, want 2", cut, n)
		}
		// The tear was truncated away: a second replay of the same file as
		// a frozen (non-final) segment must now succeed cleanly.
		if _, err := replaySegment(p, false, func(walRecord) error { return nil }); err != nil {
			t.Fatalf("cut %d not repaired: %v", cut, err)
		}
	}
}

func TestWALCorruptionInFrozenSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendAll([]walRecord{{id: "bus", pts: walPoints(0, 8)}}); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := walSegments(dir)
	data, _ := os.ReadFile(segs[0])
	data[len(data)/2] ^= 0xFF // flip a payload bit: checksum must catch it
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := replaySegment(segs[0], false, func(walRecord) error { return nil }); err == nil {
		t.Fatal("corrupt frozen segment replayed without error")
	}
}

func TestWALRotateReclaim(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.appendAll([]walRecord{{id: "a", pts: walPoints(0, 1)}}); err != nil {
		t.Fatal(err)
	}
	frozen, err := w.rotate()
	if err != nil || len(frozen) != 1 {
		t.Fatalf("rotate: %v, %v", frozen, err)
	}
	if err := w.appendAll([]walRecord{{id: "a", offset: 1, pts: walPoints(1, 1)}}); err != nil {
		t.Fatal(err)
	}
	// Both the frozen and the live segment exist until reclaim.
	if segs, _, _ := walSegments(dir); len(segs) != 2 {
		t.Fatalf("segments before reclaim: %v", segs)
	}
	w.reclaim(frozen)
	segs, _, _ := walSegments(dir)
	if len(segs) != 1 {
		t.Fatalf("segments after reclaim: %v", segs)
	}
	if segs[0] == frozen[0] {
		t.Fatal("reclaim removed the live segment")
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestWALSegmentsResumeNumbering(t *testing.T) {
	dir := t.TempDir()
	w, _ := openWAL(dir, false)
	w.appendAll([]walRecord{{id: "a", pts: walPoints(0, 1)}})
	w.close()
	// A second process start must not reuse (and clobber) segment 1.
	w2, err := openWAL(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.close()
	if len(w2.frozen) != 1 {
		t.Fatalf("prior segment not frozen: %v", w2.frozen)
	}
	segs, last, _ := walSegments(dir)
	if len(segs) != 2 || last != 2 {
		t.Fatalf("segments %v, last %d", segs, last)
	}
}

// TestWALGroupBatchTornTailEveryByte writes one multi-record group batch
// (a fleet appendAll: one file write carries three records), then chops
// the segment at every byte inside the batch. Replay must recover every
// record wholly before the cut, repair the tear in place, and never error
// — a torn group write behaves exactly like a torn single record.
func TestWALGroupBatchTornTailEveryByte(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := []walRecord{
		{id: "bus-1", offset: 0, pts: walPoints(0, 3)},
		{id: "bus-2", offset: 0, pts: walPoints(50, 2)},
		{id: "bus-3", offset: 0, pts: walPoints(90, 4)},
	}
	if err := w.appendAll(recs); err != nil {
		t.Fatal(err)
	}
	if _, batches, _ := w.stats(); batches != 1 {
		t.Fatalf("appendAll used %d writes, want 1 group commit", batches)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, _, _ := walSegments(dir)
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries, for computing how many records survive each cut.
	var bounds []int
	off := 0
	for off < len(data) {
		_, n, derr := decodeWALRecord(data[off:])
		if derr != nil {
			t.Fatal(derr)
		}
		off += n
		bounds = append(bounds, off)
	}
	for cut := 1; cut < len(data); cut++ {
		want := 0
		for _, b := range bounds {
			if b <= cut {
				want++
			}
		}
		p := filepath.Join(dir, "torn.log")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, err := replaySegment(p, true, func(walRecord) error { return nil })
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != want {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, n, want)
		}
		// Repaired: a frozen-segment replay of the same file is now clean.
		if _, err := replaySegment(p, false, func(walRecord) error { return nil }); err != nil {
			t.Fatalf("cut %d not repaired: %v", cut, err)
		}
	}
}

// TestWALGroupCommitConcurrentAppends drives many concurrent appenders
// and verifies every record lands durably and decodes intact, that the
// stats counters account for every record, and that commits coalesced
// (batches never exceed records). Run with -race.
func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := openWAL(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("w-%d", i)
			for j := 0; j < perWriter; j++ {
				if err := w.appendAll([]walRecord{{id: id, offset: j, pts: walPoints(j, 1)}}); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	records, batches, fsyncs := w.stats()
	if records != writers*perWriter {
		t.Fatalf("staged %d records, want %d", records, writers*perWriter)
	}
	if batches == 0 || batches > records {
		t.Fatalf("batches = %d out of range (records %d)", batches, records)
	}
	if fsyncs != batches {
		t.Fatalf("fsyncs = %d, want one per batch (%d)", fsyncs, batches)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}

	// Every writer's records replay complete and in per-writer order.
	segs, _, _ := walSegments(dir)
	next := make(map[string]int)
	for _, seg := range segs {
		if _, err := replaySegment(seg, true, func(r walRecord) error {
			if r.offset != next[r.id] {
				t.Errorf("%s: record at offset %d, want %d (reordered)", r.id, r.offset, next[r.id])
			}
			next[r.id] = r.offset + len(r.pts)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < writers; i++ {
		if id := fmt.Sprintf("w-%d", i); next[id] != perWriter {
			t.Errorf("%s: replayed %d points, want %d", id, next[id], perWriter)
		}
	}
}

// TestWALHostileRecordRefusedOrTruncated: a checksummed record whose claimed
// lengths wrap the decoder's arithmetic used to panic replaySegment, and so
// Open. Behind a good record it is now refused in a frozen segment and cut
// away as a torn tail in the active one.
func TestWALHostileRecordRefusedOrTruncated(t *testing.T) {
	good := encodeWALRecord(walRecord{id: "bus", offset: 0, pts: walPoints(0, 2)})
	for i, payload := range hostileWALPayloads() {
		p := filepath.Join(t.TempDir(), "hostile.log")
		if err := os.WriteFile(p, append(bytes.Clone(good), sealWALRecord(payload)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := replaySegment(p, false, func(walRecord) error { return nil }); err == nil {
			t.Fatalf("hostile record %d replayed in a frozen segment", i)
		}
		if n, err := replaySegment(p, true, func(walRecord) error { return nil }); err != nil || n != 1 {
			t.Fatalf("hostile record %d in the active segment: replayed %d, err %v", i, n, err)
		}
		if fi, err := os.Stat(p); err != nil || fi.Size() != int64(len(good)) {
			t.Fatalf("hostile record %d: the active segment was not truncated to its good record (%v)", i, err)
		}
	}
}

// appendToNewestSegment crashes a checkpointed store holding "bus" with n
// points and appends recs, encoded as the WAL writes them, to its newest
// segment. It returns the segment's path.
func appendToNewestSegment(t *testing.T, dir string, n int, recs ...walRecord) string {
	t.Helper()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bus", walPoints(0, n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(s)
	segs, _, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v, %v", segs, err)
	}
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, encodeWALRecord(rec)...)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return segs[len(segs)-1]
}

// TestReplayRefusesZeroPointRecord: no observe writes a record without
// points, so replay refuses one, naming its id, and Open fails. It must not
// be taken for a torn tail: the records after it were acknowledged, and the
// segment is left byte for byte as it was.
func TestReplayRefusesZeroPointRecord(t *testing.T) {
	dir := t.TempDir()
	seg := appendToNewestSegment(t, dir, 10,
		walRecord{id: "bus", offset: 10, pts: walPoints(10, 3)},
		walRecord{id: "bus", offset: 13},
		walRecord{id: "bus", offset: 13, pts: walPoints(13, 4)},
	)
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, durableOpts())
	if err == nil {
		s.Close()
		t.Fatal("Open replayed a record with no points")
	}
	if !strings.Contains(err.Error(), `"bus"`) || !strings.Contains(err.Error(), "no points") {
		t.Errorf("the refusal does not name the record's id: %v", err)
	}
	if after, err := os.ReadFile(seg); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the segment changed: %d bytes before, %d after (%v)", len(before), len(after), err)
	}
}

// TestReplayRefusesOffsetGap: a record whose offset lies beyond the track
// the snapshot and the records before it built means an acknowledged record
// vanished, and Open fails.
func TestReplayRefusesOffsetGap(t *testing.T) {
	dir := t.TempDir()
	appendToNewestSegment(t, dir, 10,
		walRecord{id: "bus", offset: 10, pts: walPoints(10, 3)},
		walRecord{id: "bus", offset: 15, pts: walPoints(15, 2)},
	)
	s, err := Open(dir, durableOpts())
	if err == nil {
		s.Close()
		t.Fatal("Open replayed a record past the end of its track")
	}
	if !strings.Contains(err.Error(), "replay gap") || !strings.Contains(err.Error(), `"bus"`) {
		t.Errorf("Open failed without naming the gap: %v", err)
	}
}
