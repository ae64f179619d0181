package store

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hpm"
)

// The golden directory under testdata/fleet is frozen: a manifest and three
// segments written by the commit before the one-format change (bf43535),
// which opened the old single-file fixture — a three-object fleet under
// Options{Config: {Period: period}, MinTrainPeriods: 3, RetrainEvery: 50};
// "fixture-trained" fed four Bike periods, "fixture-short" half a period,
// "fixture-single" one point — with every checkpoint forced to a full rewrite
// (an option that commit still had) and closed it. It is the
// corpus that proves a directory written by an older build of this format
// still opens, answers and re-encodes byte for byte; a fixture for a newer
// layout is a new directory beside it, never a regeneration of this one.
const goldenDir = "testdata/fleet"

// goldenCopy copies the golden directory into a temp dir and returns it
// with the segment files' names.
func goldenCopy(t testing.TB) (dir string, segments []string) {
	t.Helper()
	dir = t.TempDir()
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if e.Name() != snapshotFile {
			segments = append(segments, e.Name())
		}
	}
	return dir, segments
}

// TestGoldenDirectory pins the reader and the writer to the parent commit's
// bytes: the committed directory opens, holds the fleet it was written
// from, answers as it did there, and — every shard marked dirty, so every
// segment is rewritten — re-encodes to exactly the fixture's segment bytes.
func TestGoldenDirectory(t *testing.T) {
	dir, segments := goldenCopy(t)
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open the golden directory: %v", err)
	}
	defer s.Close()
	if h := s.Health(); !h.SnapshotRestored || h.Objects != 3 || h.Open.Models != 1 {
		t.Fatalf("golden directory not restored: %+v", h)
	}
	for id, want := range map[string]struct {
		points int
		last   hpm.Point
	}{
		"fixture-trained": {240, hpm.Pt(9233.00695129153, 9059.263651494102)},
		"fixture-short":   {30, hpm.Pt(4973.800975679986, 4500.932071328341)},
		"fixture-single":  {1, hpm.Pt(10, 20)},
	} {
		obj, err := s.get(id, false)
		if err != nil {
			t.Fatal(err)
		}
		if len(obj.track) != want.points || obj.base != 0 || obj.track[len(obj.track)-1] != want.last {
			t.Errorf("%s: %d points from %d ending at %v, want %d from 0 ending at %v",
				id, len(obj.track), obj.base, obj.track[len(obj.track)-1], want.points, want.last)
		}
	}
	if st, err := s.Stats("fixture-trained"); err != nil || !st.Trained || st.Patterns != 199 || st.Regions != 12 || st.Modeled != 4 {
		t.Errorf("fixture-trained: %+v (err %v), want 199 patterns over 12 regions from 4 periods", st, err)
	}
	// The answers the parent commit gave over the same directory.
	now, _ := s.Now("fixture-trained")
	if got, err := s.Predict("fixture-trained", now+63, 1); err != nil || len(got) != 1 ||
		got[0].Location != hpm.Pt(1172.8074347654867, 1625.9441560799157) || got[0].PatternRef != 1 ||
		got[0].Score != 1 || got[0].Confidence != 1 || got[0].Source.String() != "pattern" || got[0].Path.String() != "backward" {
		t.Errorf("pattern answer at now+63: %+v (err %v)", got, err)
	}
	if got, err := s.PredictVia("fixture-trained", hpm.PathMarkov, now+10, 1); err != nil || len(got) != 1 ||
		got[0].Location != hpm.Pt(10051.052539677721, 10165.549738406873) {
		t.Errorf("markov-path answer at now+10: %+v (err %v)", got, err)
	}
	if cb := chainBytes(t, s, "fixture-trained"); len(cb) != 260 || crc32.ChecksumIEEE(cb) != 0xa09613bc {
		t.Errorf("chain: %d bytes, crc %08x, want 260 and a09613bc", len(cb), crc32.ChecksumIEEE(cb))
	}

	for i := range s.shards {
		s.shards[i].dirty.Store(true)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if info := s.Health().LastCheckpoint; info.Shards != len(segments) || info.Epoch != 2 {
		t.Fatalf("the rewrite: %+v, want %d segments at epoch 2", info, len(segments))
	}
	for _, name := range segments {
		var shard int
		var epoch uint64
		if _, err := fmt.Sscanf(name, segmentFormat, &shard, &epoch); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(segmentFormat, shard, uint64(2))))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d re-encodes to %d bytes that differ from the fixture's %d", shard, len(got), len(want))
		}
	}
}

// TestRetiredFormatsRefused: every layout this build stopped reading is
// refused at Open by the number it carries, with a pointer at the upgrade
// note — each behind valid checksums, so the refusal is the decoder's — and
// the failed Open leaves neither a goroutine nor a file handle behind.
func TestRetiredFormatsRefused(t *testing.T) {
	inline := func(version byte) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			// The old single-file fleet stream: header, options, no objects.
			body := append([]byte(snapshotMagic), version)
			body = append(body, "\x18{\"Config\":{\"Period\":60}}\x00"...)
			data, _ := sealSegment(body, 0, 0)
			if err := os.WriteFile(filepath.Join(dir, snapshotFile), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		version byte
		plant   func(t *testing.T, dir string)
	}{
		{"inline snapshot 1", 1, inline(1)},
		{"inline snapshot 2", 2, inline(2)},
		{"inline snapshot 4", 4, inline(4)},
		{"segment 1", 1, func(t *testing.T, dir string) {
			plantSnapshot(t, dir, []byte(segmentMagic+"\x01\x00\x00"))
		}},
		{"model stream 1", 1, func(t *testing.T, dir string) {
			body, _ := recordSegment(t, objectSnapshot{id: "old", model: []byte("HPMM\x01")})
			plantSnapshot(t, dir, body)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.plant(t, dir)
			goroutines, handles := runtime.NumGoroutine(), openHandles(t)
			s, err := Open(dir, durableOpts())
			if err == nil {
				s.Close()
				t.Fatal("a retired format opened")
			}
			if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("version %d,", tc.version)) || !strings.Contains(msg, "DESIGN.md") {
				t.Errorf("the refusal does not name version %d and the upgrade note: %v", tc.version, err)
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("goroutines outlive the failed Open: %d before, %d after", goroutines, runtime.NumGoroutine())
				}
			}
			if after := openHandles(t); after > handles {
				t.Errorf("file handles outlive the failed Open: %d before, %d after", handles, after)
			}
		})
	}
}

// openHandles counts the process's open file descriptors, where the
// platform lists them.
func openHandles(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(fds)
}

// TestOpenSaysHowIndexesArrived: Open reports how many models it loaded,
// every one laid out from its saved shape, and the fleet answers the same
// across a checkpoint and a second open.
func TestOpenSaysHowIndexesArrived(t *testing.T) {
	dir, _ := goldenCopy(t)
	var answers [2][]hpm.Prediction
	for i := range answers {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if oi := s.Health().Open; oi == nil || oi.Models != 1 || oi.LoadSeconds <= 0 {
			t.Fatalf("open %d reports %+v, want one model", i, oi)
		}
		now, _ := s.Now("fixture-trained")
		if answers[i], err = s.Predict("fixture-trained", now+63, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil { // checkpoints
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Errorf("answers moved across a reopen:\n%+v\n%+v", answers[0], answers[1])
	}
}

// TestOpenRejectsMissingSegment deletes one segment file out from under a
// snapshot: Open must fail loudly, naming the segment, rather than
// silently dropping that shard's objects.
func TestOpenRejectsMissingSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus", 13, 3, 60)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files after close (err %v)", err)
	}
	orig, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableOpts()); err == nil {
		t.Fatal("missing segment accepted")
	} else if !strings.Contains(err.Error(), filepath.Base(segs[0])) {
		t.Errorf("error does not name the missing segment: %v", err)
	}

	// Corruption (same size, flipped bit) is caught by the checksum...
	bad := append([]byte(nil), orig...)
	bad[len(bad)/2] ^= 0x01
	if err := os.WriteFile(segs[0], bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableOpts()); err == nil {
		t.Fatal("corrupt segment accepted")
	}
	// ...and truncation by the manifest's recorded size.
	if err := os.WriteFile(segs[0], orig[:len(orig)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, durableOpts()); err == nil {
		t.Fatal("truncated segment accepted")
	}

	if err := os.WriteFile(segs[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatalf("pristine segment restored but open fails: %v", err)
	}
	back.Close()
}

// TestIncrementalCheckpointRewritesOnlyDirty is the O(dirty) contract:
// after a full checkpoint, touching one object makes the next checkpoint
// rewrite exactly one shard — and an untouched fleet checkpoints as a
// pure WAL reclaim that re-encodes nothing at all.
func TestIncrementalCheckpointRewritesOnlyDirty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	const fleet = 100
	for i := 0; i < fleet; i++ {
		if err := s.Observe(fmt.Sprintf("obj-%03d", i), hpm.Pt(float64(i), float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	first := s.Health().LastCheckpoint
	if first == nil || !first.Full || first.Objects != fleet || first.Epoch != 1 {
		t.Fatalf("first checkpoint not a full epoch-1 snapshot: %+v", first)
	}

	if err := s.Observe("obj-000", hpm.Pt(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	second := s.Health().LastCheckpoint
	if second == nil || second.Full || second.Shards != 1 || second.Epoch != 2 {
		t.Fatalf("second checkpoint should rewrite exactly the dirty shard: %+v", second)
	}
	if second.Objects >= fleet {
		t.Fatalf("incremental checkpoint re-encoded the whole fleet: %+v", second)
	}

	// Nothing changed: the checkpoint is a no-op reclaim.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	third := s.Health().LastCheckpoint
	if third == nil || third.Objects != 0 || third.Shards != 0 || third.Epoch != 2 {
		t.Fatalf("clean checkpoint should write nothing: %+v", third)
	}

	crash(s)
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if got := len(back.Objects()); got != fleet {
		t.Fatalf("recovered %d objects, want %d", got, fleet)
	}
	if st, _ := back.Stats("obj-000"); st.Points != 2 {
		t.Fatalf("obj-000 recovered %d points, want 2", st.Points)
	}
	if st, _ := back.Stats("obj-099"); st.Points != 1 {
		t.Fatalf("obj-099 recovered %d points, want 1", st.Points)
	}
}

// TestOrphanSegmentsSwept plants segment files no manifest references —
// the debris of a checkpoint that died between segment writes and its
// manifest commit — and requires Open to delete them while keeping every
// live segment.
func TestOrphanSegmentsSwept(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, s, "bus", 7, 3, 50)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	live, err := filepath.Glob(filepath.Join(dir, segmentPattern))
	if err != nil || len(live) == 0 {
		t.Fatalf("no live segments (err %v)", err)
	}
	orphan := filepath.Join(dir, fmt.Sprintf(segmentFormat, 63, uint64(999)))
	if err := os.WriteFile(orphan, []byte("half-written segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Error("orphan segment survived Open")
	}
	for _, p := range live {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("live segment %s swept: %v", filepath.Base(p), err)
		}
	}
}

// TestRemoveSurvivesIncrementalCheckpoint: a removal after a checkpoint
// dirties its shard, so the next incremental checkpoint re-encodes the
// shard without the object and the removal sticks across a crash even
// after the tombstone's WAL segment is reclaimed.
func TestRemoveSurvivesIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Observe(fmt.Sprintf("obj-%d", i), hpm.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("obj-3"); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // incremental: obj-3's shard only
		t.Fatal(err)
	}
	if info := s.Health().LastCheckpoint; info.Full {
		t.Fatalf("expected an incremental checkpoint: %+v", info)
	}
	crash(s)
	back, err := Open(dir, durableOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if _, err := back.Stats("obj-3"); err == nil {
		t.Error("removed object resurrected by incremental checkpoint")
	}
	if got := len(back.Objects()); got != 9 {
		t.Errorf("recovered %d objects, want 9", got)
	}
}
