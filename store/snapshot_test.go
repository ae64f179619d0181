package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hpm"
)

// The golden snapshots under testdata are frozen. They were written once, by
// a generator test that has since been deleted, from a three-object fleet
// (Options{Config: {Period: period}, MinTrainPeriods: 3, RetrainEvery: 50};
// "fixture-trained" fed four Bike periods, "fixture-short" half a period,
// "fixture-single" one point) in the version-1 and version-2 single-file
// layouts, and both nest a version-1 model stream: no tree shape. Today's
// Save writes version-2 model streams, so regenerating them would silently
// drop the only corpus that proves old directories still open; a fixture for
// a newer layout is a new file beside them.

// TestCompatFixturesLoad loads the committed v1 and v2 golden snapshots
// and requires them to describe the same fleet, byte for byte, once
// re-encoded: compatibility means an old snapshot restores to exactly the
// state a current one would.
func TestCompatFixturesLoad(t *testing.T) {
	v1, err := LoadFile(filepath.Join("testdata", "snapshot_v1.hpms"))
	if err != nil {
		t.Fatalf("load v1 fixture: %v", err)
	}
	defer v1.Close()
	v2, err := LoadFile(filepath.Join("testdata", "snapshot_v2.hpms"))
	if err != nil {
		t.Fatalf("load v2 fixture: %v", err)
	}
	defer v2.Close()

	for _, s := range []*Store{v1, v2} {
		if got := s.Objects(); len(got) != 3 {
			t.Fatalf("fixture restored %d objects: %v", len(got), got)
		}
		st, err := s.Stats("fixture-trained")
		if err != nil || !st.Trained {
			t.Fatalf("fixture-trained not trained after restore: %+v (err %v)", st, err)
		}
		now, _ := s.Now("fixture-trained")
		if _, err := s.Predict("fixture-trained", now+10, 1); err != nil {
			t.Fatalf("predict from restored fixture: %v", err)
		}
	}

	var a, b bytes.Buffer
	if err := v1.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := v2.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("v1 and v2 fixtures re-encode differently: version upgrade is lossy")
	}
}

// TestCompatV2UpgradesToV3 opens a durable store seeded with the v2
// single-file fixture, checkpoints it into the sharded v3 layout, and
// requires the reopened fleet to re-encode byte-identically to the v2
// restore: the upgrade path loses nothing.
func TestCompatV2UpgradesToV3(t *testing.T) {
	fix, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.hpms"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), fix, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open over v2 snapshot: %v", err)
	}
	if h := s.Health(); !h.SnapshotRestored || h.Objects != 3 {
		t.Fatalf("v2 snapshot not restored: %+v", h)
	}
	var want bytes.Buffer
	if err := s.Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // rewrites as manifest + segments
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	back, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after v3 upgrade: %v", err)
	}
	defer back.Close()
	var got bytes.Buffer
	if err := back.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Error("fleet differs after v2 -> v3 upgrade round trip")
	}
}

// TestOpenSaysHowIndexesArrived: a directory whose snapshot predates the
// tree shape opens with every model re-indexed by the sort and says so;
// one checkpoint later the same fleet opens by reading its shapes, and
// answers the same.
func TestOpenSaysHowIndexesArrived(t *testing.T) {
	fix, err := os.ReadFile(filepath.Join("testdata", "snapshot_v2.hpms"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), fix, 0o644); err != nil {
		t.Fatal(err)
	}
	var answers [2][]hpm.Prediction
	for i, want := range []OpenInfo{{Models: 1, Reindexed: 1}, {Models: 1, Reindexed: 0}} {
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if oi := s.Health().Open; oi == nil || oi.Models != want.Models || oi.Reindexed != want.Reindexed {
			t.Fatalf("open %d reports %+v, want %d models of which %d re-indexed", i, oi, want.Models, want.Reindexed)
		}
		now, _ := s.Now("fixture-trained")
		if answers[i], err = s.Predict("fixture-trained", now+10, 3); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil { // checkpoints: the model stream is rewritten with its shape
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(answers[0], answers[1]) {
		t.Errorf("answers moved across the upgrade:\n%+v\n%+v", answers[0], answers[1])
	}
}

// TestOpenRejectsMissingSegment deletes one segment file out from under a
// v3 snapshot: Open must fail loudly, naming the segment, rather than
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

// TestCompactEveryForcesFullRewrite checks the compaction valve: with
// CompactEvery=2, every second checkpoint rewrites the whole fleet even
// though only one shard is dirty, re-keying old epochs' segments so the
// directory never accumulates unboundedly stale files.
func TestCompactEveryForcesFullRewrite(t *testing.T) {
	opts := durableOpts()
	opts.CompactEvery = 2
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const fleet = 20
	for i := 0; i < fleet; i++ {
		if err := s.Observe(fmt.Sprintf("obj-%02d", i), hpm.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	dirtyOne := func(i int) {
		t.Helper()
		if err := s.Observe(fmt.Sprintf("obj-%02d", i%fleet), hpm.Pt(float64(i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil { // 1: full (first ever)
		t.Fatal(err)
	}
	dirtyOne(1)
	if err := s.Checkpoint(); err != nil { // 2: incremental
		t.Fatal(err)
	}
	if info := s.Health().LastCheckpoint; info.Full {
		t.Fatalf("second checkpoint should be incremental: %+v", info)
	}
	dirtyOne(2)
	if err := s.Checkpoint(); err != nil { // 3: forced full
		t.Fatal(err)
	}
	info := s.Health().LastCheckpoint
	if !info.Full || info.Objects != fleet {
		t.Fatalf("CompactEvery=2 did not force a full rewrite on the third checkpoint: %+v", info)
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
