package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hpm"
)

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 50})
	feed(t, s, "bike-1", 1, 5) // trained
	feed(t, s, "bike-2", 2, 4) // trained
	if err := s.Observe("young", hpm.Pt(10, 20)); err != nil {
		t.Fatal(err) // untrained object with one observation
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
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

func TestStoreSnapshotOptionsPreserved(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 7, RetrainEvery: 9, MaxRecent: 25})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.opts, s.opts) {
		t.Errorf("options differ: %+v vs %+v", back.opts, s.opts)
	}
	if back.Period() != period {
		t.Errorf("period %d, want %d", back.Period(), period)
	}
}

func TestStoreLoadRejectsGarbage(t *testing.T) {
	for i, in := range [][]byte{
		nil,
		[]byte("XXXX\x01"),
		[]byte("HPMS\x09"),
		[]byte("HPMS\x01\x03{}"), // truncated options
	} {
		if _, err := Load(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage snapshot accepted", i)
		}
	}
}

// TestSaveUnderConcurrentObserves snapshots repeatedly while writers keep
// ingesting: every snapshot must load cleanly (each object's record is a
// consistent point-in-time cut, taken under its lock). Meant for -race.
func TestSaveUnderConcurrentObserves(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
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
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
		for _, id := range back.Objects() {
			if _, err := back.Stats(id); err != nil {
				t.Fatalf("load %d: stats %s: %v", i, id, err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 3, 4)
	path := filepath.Join(t.TempDir(), "fleet.hpms")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Stats("bike")
	b, err := back.Stats("bike")
	if err != nil || a.Points != b.Points || a.Trained != b.Trained || a.Patterns != b.Patterns {
		t.Fatalf("stats differ after file roundtrip: %+v vs %+v (err %v)", a, b, err)
	}
}

func TestStoreLoadRejectsTruncation(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 1, 4)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0.2, 0.6, 0.95} {
		cut := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

// hostileAllocs runs Load over a stream whose length field lies and returns
// what it allocated: the lie must come back as an error, for free.
func hostileAllocs(t *testing.T, stream []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Load(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if err == nil {
		s.Close()
		t.Fatal("a stream cut short behind a hostile length loaded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d stream bytes allocated %d before failing with %q", len(stream), grew, err)
	}
}

// TestLoadHostileTrackLength: Load has no checksum in front of it, so a
// track length is a claim. A 39-byte stream claiming 2^30 points used to be
// `make([]hpm.Point, n)`, 16 GB: a dead process, not an error.
func TestLoadHostileTrackLength(t *testing.T) {
	var b bytes.Buffer
	bw := bufio.NewWriter(&b)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVersion)
	writeBytes(bw, []byte(`{"Config":{"Period":60}}`))
	writeUvarint(bw, 1)      // objects
	writeBytes(bw, []byte{}) // id
	writeUvarint(bw, 0)      // track base
	writeUvarint(bw, 1<<30)  // track length, and nothing behind it
	bw.Flush()
	hostileAllocs(t, b.Bytes())
}

// TestLoadHostileChainLength: the same for the Markov blob behind a valid
// model stream, which used to be one `make([]byte, n)` of a gigabyte.
func TestLoadHostileChainLength(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 50})
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
	var whole bytes.Buffer
	bw := bufio.NewWriter(&whole)
	bw.WriteString(snapshotMagic)
	bw.WriteByte(snapshotVersion)
	writeBytes(bw, []byte(`{"Config":{"Period":60}}`))
	writeUvarint(bw, 1)
	if err := snap.write(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	// snap.write ended on the empty chain's one-byte length: lie in its place.
	stream := binary.AppendUvarint(whole.Bytes()[:whole.Len()-1], 1<<30-1)
	hostileAllocs(t, stream)
}
