package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpm"
)

// fleetBytes fingerprints a fleet: every object's record through the
// segment codec (snapshotObject + write), ids ascending. Two stores with
// equal fleetBytes hold the same tracks, counters, models and chains.
func fleetBytes(t testing.TB, s *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, id := range s.Objects() {
		obj, err := s.get(id, false)
		if err != nil {
			continue // removed since the listing
		}
		snap, err := snapshotObject(id, obj)
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.write(bw); err != nil {
			t.Fatal(err)
		}
	}
	bw.Flush()
	return buf.Bytes()
}

// durableStore opens a fresh durable store under a temp dir: testStore for
// tests that go through the disk.
func durableStore(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.Config.Period == 0 {
		opts.Config.Period = period
	}
	opts.WALNoSync = true
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// reopen is the round trip through the on-disk format: checkpoint s, drop
// its log as a kill would, and open the directory again under the options s
// runs with. s keeps answering reads, so a test can compare the two.
func reopen(t testing.TB, s *Store) *Store {
	t.Helper()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(s)
	back, err := Open(s.dir, s.opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { crash(back) })
	return back
}

// loadSnapshot decodes dir's committed snapshot — manifest and segments, no
// WAL on top — into a scratch store.
func loadSnapshot(t testing.TB, dir string) (*Store, error) {
	t.Helper()
	p, m, _, err := readManifest(filepath.Join(dir, snapshotFile))
	if err != nil {
		return nil, err
	}
	s, err := New(Options{Config: hpm.Config{Period: p}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.loadSegments(dir, m); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// shardBody encodes one shard of s as a segment's payload (header and
// records, no trailer) and returns it with the shard's object count.
func shardBody(t testing.TB, s *Store, shard int) (body []byte, objects int) {
	t.Helper()
	var objs []*object
	for _, obj := range s.shards[shard].objects {
		objs = append(objs, obj)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeSegment(bw, shard, objs); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes(), len(objs)
}

// segmentHeader reads the shard and the object count a segment payload's
// header names; zeros where it names none.
func segmentHeader(body []byte) (shard, objects uint64) {
	if len(body) > len(segmentMagic) {
		br := bytes.NewReader(body[len(segmentMagic)+1:])
		shard, _ = binary.ReadUvarint(br)
		objects, _ = binary.ReadUvarint(br)
	}
	return shard, objects
}

// recordSegment is a one-record segment payload holding snap, in the shard
// its id hashes to.
func recordSegment(t testing.TB, snap objectSnapshot) (body []byte, shard int) {
	t.Helper()
	shard = int(shardIndex(snap.id))
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	bw.WriteString(segmentMagic)
	bw.WriteByte(segmentVersion)
	writeUvarint(bw, uint64(shard))
	writeUvarint(bw, 1)
	if err := snap.write(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes(), shard
}

// sealSegment frames a payload as a segment file — CRC trailer appended —
// with the manifest entry that pins exactly those bytes: what decodeSegment
// sees when the bytes on disk are what a committed manifest says they are,
// so nothing but the decoder stands between them and the store.
func sealSegment(body []byte, shard, objects int) ([]byte, snapSegment) {
	crc := crc32.Checksum(body, walCRC)
	data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc)
	return data, snapSegment{shard: shard, objects: objects, name: "seg-sealed.hpms", size: int64(len(data)), crc: crc}
}

// decodeSealed runs the segment decoder over a sealed payload on a scratch
// store, which it returns (closed already when the decode failed).
func decodeSealed(t testing.TB, body []byte, shard, objects int) (*Store, error) {
	t.Helper()
	scratch, err := New(Options{Config: hpm.Config{Period: period}})
	if err != nil {
		t.Fatal(err)
	}
	data, sg := sealSegment(body, shard, objects)
	if err := scratch.decodeSegment(data, sg); err != nil {
		scratch.Close()
		return nil, err
	}
	return scratch, nil
}

// plantSnapshot writes dir's snapshot by hand: each payload sealed into a
// segment file, and a manifest over them.
func plantSnapshot(t testing.TB, dir string, bodies ...[]byte) {
	t.Helper()
	m := &snapManifest{epoch: 1}
	for _, body := range bodies {
		shard, objects := segmentHeader(body)
		data, sg := sealSegment(body, int(shard), int(objects))
		sg.name = fmt.Sprintf(segmentFormat, shard, m.epoch)
		if err := os.WriteFile(filepath.Join(dir, sg.name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m.segments = append(m.segments, sg)
	}
	sort.Slice(m.segments, func(i, j int) bool { return m.segments[i].shard < m.segments[j].shard })
	if _, err := (&Store{dir: dir, opts: durableOpts()}).writeManifest(m); err != nil {
		t.Fatal(err)
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := durableStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 50})
	feed(t, s, "bike-1", 1, 5) // trained
	feed(t, s, "bike-2", 2, 4) // trained
	if err := s.Observe("young", hpm.Pt(10, 20)); err != nil {
		t.Fatal(err) // untrained object with one observation
	}
	back := reopen(t, s)
	if !bytes.Equal(fleetBytes(t, back), fleetBytes(t, s)) {
		t.Error("the reopened fleet re-encodes differently")
	}

	ids := back.Objects()
	if len(ids) != 3 {
		t.Fatalf("restored %d objects: %v", len(ids), ids)
	}
	for _, id := range []string{"bike-1", "bike-2"} {
		a, _ := s.Stats(id)
		b, err := back.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.Points != b.Points || a.Trained != b.Trained ||
			a.Patterns != b.Patterns || a.Regions != b.Regions || a.Modeled != b.Modeled {
			t.Errorf("%s stats differ: %+v vs %+v", id, a, b)
		}
	}
	st, _ := back.Stats("young")
	if st.Trained || st.Points != 1 {
		t.Errorf("untrained object restored wrong: %+v", st)
	}

	// The restored store answers queries identically.
	now, _ := s.Now("bike-1")
	want, err := s.Predict("bike-1", now+15, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Predict("bike-1", now+15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got[0].Location != want[0].Location {
		t.Errorf("restored prediction %+v != %+v", got, want)
	}

	// And keeps ingesting + updating after the restart.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 7
	tr := hpm.GenerateDataset(spec)
	if err := back.ObserveBatch("bike-1", tr.Slice(5*period, 7*period)); err != nil {
		t.Fatal(err)
	}
	st, _ = back.Stats("bike-1")
	if st.Modeled != 7 {
		t.Errorf("restored store did not extend: modeled %d", st.Modeled)
	}
}

// TestOpenUsesCallersOptions: a directory fixes the period and nothing else.
// A second Open runs under the options it is handed, each one the first run
// set differently, not under a copy the first run left behind; a zero period
// adopts the directory's.
func TestOpenUsesCallersOptions(t *testing.T) {
	first := durableOpts() // MinTrainPeriods 3
	first.EvalDisabled = true
	dir := t.TempDir()
	s, err := Open(dir, first)
	if err != nil {
		t.Fatal(err)
	}
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period, spec.SubTrajectories = period, 5
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch("young", tr.Slice(0, 2*period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	second := Options{
		Config:          hpm.Config{RetainPeriods: 7},
		MinTrainPeriods: 5,
		RetrainEvery:    4,
		DriftThreshold:  50,
		AdaptiveRouting: true,
		DegradeAfter:    11,
		ProbeInterval:   3 * time.Second,
		WALNoSync:       true,
	}
	second.Eval.RingSize = 7
	back, err := Open(dir, second)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	want := second
	want.Config.Period = period
	if want = want.withDefaults(); !reflect.DeepEqual(back.opts, want) {
		t.Errorf("the reopened store runs under\n%+v, was opened with\n%+v", back.opts, want)
	}
	// The options at work: an object loaded from the first run's segment is
	// scored, in a ring of the new size, and its first train waits for the
	// new floor — the first run's was passed two periods earlier.
	obj, err := back.get("young", false)
	if err != nil {
		t.Fatal(err)
	}
	if obj.eval == nil || obj.eval.Config().RingSize != 7 {
		t.Errorf("the loaded object's evaluator: %+v, want a ring of 7", obj.eval)
	}
	for _, step := range []struct {
		from, upTo int
		trained    bool
	}{{2, 4, false}, {4, 5, true}} {
		if err := back.ObserveBatch("young", tr.Slice(step.from*period, step.upTo*period)); err != nil {
			t.Fatal(err)
		}
		if err := back.Flush(); err != nil {
			t.Fatal(err)
		}
		if st, _ := back.Stats("young"); st.Periods != step.upTo || st.Trained != step.trained {
			t.Errorf("after %d periods under MinTrainPeriods 5: %+v", step.upTo, st)
		}
	}

	// A manifest written before the blob shrank to the period carries a whole
	// Options (the golden one says MinTrainPeriods 3): read for its period.
	gdir, _ := goldenCopy(t)
	g, err := Open(gdir, Options{MinTrainPeriods: 9, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.Period() != period || g.opts.MinTrainPeriods != 9 {
		t.Errorf("the golden directory serves period %d, first train after %d", g.Period(), g.opts.MinTrainPeriods)
	}
}

// TestStoreLoadRejectsGarbage: bytes that are no segment, no manifest, or
// one cut inside its header are refused by the decoder itself — each is
// CRC-valid and pinned by its manifest entry, so no checksum gets there
// first.
func TestStoreLoadRejectsGarbage(t *testing.T) {
	for i, in := range garbageSegments {
		if back, err := decodeSealed(t, in, 0, 1); err == nil {
			back.Close()
			t.Errorf("case %d: garbage segment accepted", i)
		}
	}
	for i, in := range garbageManifests {
		if _, _, err := parseManifest(in); err == nil {
			t.Errorf("case %d: garbage manifest accepted", i)
		}
	}
}

var garbageSegments = [][]byte{
	nil,
	[]byte("XXXX\x02"),
	[]byte("HPMS\x02"),              // the manifest's magic
	[]byte("HPMG\x09\x00\x00"),      // a version nobody wrote
	[]byte("HPMG\x02\x00"),          // cut before the object count
	[]byte("HPMG\x02\x00\x01\x03x"), // cut inside the one record's id
}

var garbageManifests = [][]byte{
	nil,
	[]byte("XXXX\x03"),
	[]byte("HPMG\x03"), // the segment's magic
	[]byte("HPMS\x09"),
	[]byte("HPMS\x03\x03{}"), // truncated options
	[]byte("HPMS\x03\x09not json!\x01\x00"),
	[]byte("HPMS\x03\x0d{\"Config\":{}}\x01\x00"),                     // states no period
	[]byte("HPMS\x03\x19" + `{"Config":{"Period":-60}}` + "\x01\x00"), // a negative one
	[]byte("HPMS\x03\x18" + periodBlob + "\x01\x01\x40\x00"),          // shard 64 of 64
}

// periodBlob is the JSON a manifest written by this build states its period
// in.
const periodBlob = `{"Config":{"Period":60}}`

// TestSaveUnderConcurrentObserves checkpoints repeatedly while writers keep
// ingesting: every committed snapshot must load cleanly (each object's
// record is a consistent point-in-time cut, taken under its lock). Meant
// for -race.
func TestSaveUnderConcurrentObserves(t *testing.T) {
	s := durableStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike-1", 1, 4)
	feed(t, s, "bike-2", 2, 4)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w, id := range []string{"bike-1", "bike-2"} {
		wg.Add(1)
		go func(w int, id string) {
			defer wg.Done()
			spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(w+1))
			spec.Period = period
			spec.SubTrajectories = 8
			pts := hpm.GenerateDataset(spec).Slice(4*period, 8*period)
			for i := 0; i < len(pts) && !stop.Load(); i += 7 {
				end := i + 7
				if end > len(pts) {
					end = len(pts)
				}
				if err := s.ObserveBatch(id, pts[i:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w, id)
	}
	for i := 0; i < 8; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		back, err := loadSnapshot(t, s.dir)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		for _, id := range back.Objects() {
			if _, err := back.Stats(id); err != nil {
				t.Fatalf("load %d: stats %s: %v", i, id, err)
			}
		}
		back.Close()
	}
	stop.Store(true)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreLoadRejectsTruncation: a segment cut anywhere inside its
// records — re-sealed, so the cut is all that is wrong with it — is an
// error, never a shorter fleet.
func TestStoreLoadRejectsTruncation(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 1, 4)
	shard := int(shardIndex("bike"))
	full, objects := shardBody(t, s, shard)
	if back, err := decodeSealed(t, full, shard, objects); err != nil {
		t.Fatalf("the uncut segment: %v", err)
	} else {
		back.Close()
	}
	for _, frac := range []float64{0.2, 0.6, 0.95} {
		cut := int(float64(len(full)) * frac)
		if back, err := decodeSealed(t, full[:cut], shard, objects); err == nil {
			back.Close()
			t.Errorf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

// hostileAllocs runs the segment decoder over a payload whose length field
// lies and checks what it allocated: the lie must come back as an error,
// for free.
func hostileAllocs(t *testing.T, body []byte, shard int) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := decodeSealed(t, body, shard, 1)
	runtime.ReadMemStats(&after)
	if err == nil {
		s.Close()
		t.Fatal("a segment cut short behind a hostile length loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d segment bytes allocated %d before failing with %q", len(body), grew, err)
	}
}

// hostileTrackLength is a one-record segment payload whose track claims
// 2^30 points and holds none.
func hostileTrackLength(t testing.TB) (body []byte, shard int) {
	whole, shard := recordSegment(t, objectSnapshot{})
	// An empty id, base 0, and then the empty track's length, modeled,
	// sinceRetrain and the trained flag, a byte each: lie in the length's
	// place, with nothing behind it.
	return binary.AppendUvarint(whole[:len(whole)-4], 1<<30), shard
}

// hostileChainLength is a one-record segment payload — a trained object,
// valid up to its model stream — whose Markov blob claims a gigabyte and
// holds none.
func hostileChainLength(t testing.TB) (body []byte, shard int) {
	t.Helper()
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 50})
	defer s.Close()
	feed(t, s, "bike", 1, 4)
	obj, err := s.get("bike", false)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := snapshotObject("bike", obj)
	if err != nil || snap.model == nil {
		t.Fatalf("no model to put in front of the chain: %v", err)
	}
	snap.chain = nil
	whole, shard := recordSegment(t, snap)
	// snap.write ended on the empty chain's one-byte length: lie in its place.
	return binary.AppendUvarint(whole[:len(whole)-1], 1<<30-1), shard
}

// TestLoadHostileTrackLength: a segment's CRC says its bytes are the ones
// that were written, not that a sane writer wrote them, so a track length
// is a claim. A payload claiming 2^30 points used to be
// `make([]hpm.Point, n)`, 16 GB: a dead process, not an error.
func TestLoadHostileTrackLength(t *testing.T) {
	body, shard := hostileTrackLength(t)
	hostileAllocs(t, body, shard)
}

// TestLoadHostileChainLength: the same for the Markov blob behind a valid
// model stream, which used to be one `make([]byte, n)` of a gigabyte.
func TestLoadHostileChainLength(t *testing.T) {
	body, shard := hostileChainLength(t)
	hostileAllocs(t, body, shard)
}
