package evalq

import (
	"reflect"
	"sync"
	"testing"

	"hpm/internal/geom"
)

func TestBucketMapping(t *testing.T) {
	cfg := Config{Buckets: []int{5, 10, 50}}.WithDefaults()
	cases := []struct{ h, want int }{
		{1, 0}, {5, 0}, {6, 1}, {10, 1}, {11, 2}, {50, 2}, {51, 3}, {10000, 3},
	}
	for _, c := range cases {
		if got := cfg.Bucket(c.h); got != c.want {
			t.Errorf("Bucket(%d) = %d, want %d", c.h, got, c.want)
		}
	}
	if cfg.NumBuckets() != 4 {
		t.Errorf("NumBuckets = %d, want 4", cfg.NumBuckets())
	}
	if cfg.BucketLabel(0) != "5" || cfg.BucketLabel(3) != "+Inf" {
		t.Errorf("labels = %q, %q", cfg.BucketLabel(0), cfg.BucketLabel(3))
	}
}

func TestRecordScoreHitAndMiss(t *testing.T) {
	tr := New(Config{HitDistance: 10, Buckets: []int{5, 50}})
	// Near prediction (horizon 3 -> bucket 0), within D of the truth.
	tr.Record(100, 103, PathForward, geom.Pt(0, 0))
	// Distant prediction (horizon 50 -> bucket 1), far from the truth.
	tr.Record(100, 150, PathBackward, geom.Pt(0, 0))
	// A fallback at the same distant horizon, exactly at the truth.
	tr.Record(100, 150, PathFallback, geom.Pt(500, 0))

	// Truth arrives: timestamps 101..150, all at (6,8) until 150 is (500,0).
	pts := make([]geom.Point, 50)
	for i := range pts {
		pts[i] = geom.Pt(6, 8) // distance 10 from origin: a hit at D=10
	}
	pts[49] = geom.Pt(500, 0)
	scored := tr.Observe(101, pts)
	if scored != 3 {
		t.Fatalf("scored = %d, want 3", scored)
	}

	s := tr.Snapshot()
	if s.Scored != 3 || s.Outstanding != 0 {
		t.Fatalf("totals = %+v", s.Totals)
	}
	find := func(le, path string) CellSnapshot {
		for _, c := range s.Cells {
			if c.HorizonLE == le && c.Path == path {
				return c
			}
		}
		t.Fatalf("cell %s/%s missing", le, path)
		return CellSnapshot{}
	}
	if c := find("5", "forward"); c.Attempts != 1 || c.Hits != 1 {
		t.Errorf("forward cell = %+v", c)
	}
	if c := find("50", "backward"); c.Attempts != 1 || c.Hits != 0 || c.MeanError != 500 {
		t.Errorf("backward cell = %+v", c)
	}
	if c := find("50", "fallback"); c.Attempts != 1 || c.Hits != 1 || c.MeanError != 0 {
		t.Errorf("fallback cell = %+v", c)
	}
}

func TestPastPredictionsIgnored(t *testing.T) {
	tr := New(Config{})
	tr.Record(100, 100, PathForward, geom.Pt(0, 0)) // tq == now
	tr.Record(100, 50, PathForward, geom.Pt(0, 0))  // tq < now
	if s := tr.Snapshot(); s.Recorded != 0 || s.Outstanding != 0 {
		t.Errorf("past predictions recorded: %+v", s.Totals)
	}
}

func TestRingEviction(t *testing.T) {
	tr := New(Config{RingSize: 4})
	for i := 0; i < 10; i++ {
		tr.Record(0, 100+i, PathForward, geom.Pt(0, 0))
	}
	s := tr.Snapshot()
	if s.Outstanding != 4 || s.Evicted != 6 || s.Recorded != 10 {
		t.Fatalf("totals = %+v", s.Totals)
	}
	// Only the newest four (tq 106..109) remain scoreable.
	pts := make([]geom.Point, 10)
	scored := tr.Observe(100, pts)
	if scored != 4 {
		t.Errorf("scored = %d, want 4", scored)
	}
}

func TestExpiry(t *testing.T) {
	tr := New(Config{})
	tr.Record(0, 5, PathForward, geom.Pt(0, 0))
	// The stream jumps past tq=5: the entry expires rather than scoring
	// against the wrong timestamp.
	scored := tr.Observe(6, []geom.Point{geom.Pt(1, 1)})
	if scored != 0 {
		t.Fatalf("scored = %d, want 0", scored)
	}
	if s := tr.Snapshot(); s.Expired != 1 || s.Outstanding != 0 {
		t.Errorf("totals = %+v", s.Totals)
	}
}

// TestRingOnFirstRecord pins the lazy ring: a tracker that only ever
// observes, or whose every prediction is in the past, holds no ring, and
// reports exactly what an empty tracker reports. The first accepted
// prediction allocates the full ring.
func TestRingOnFirstRecord(t *testing.T) {
	cfg := Config{Buckets: []int{5, 50}}
	tr := New(cfg)
	tr.Observe(1, make([]geom.Point, 20))
	tr.Record(30, 30, PathForward, geom.Pt(0, 0)) // tq == now: not accepted
	if tr.ring != nil {
		t.Fatalf("a tracker that never recorded holds a %d-entry ring", len(tr.ring))
	}
	want := Summary{Cells: snapshotCells(cfg.WithDefaults(), make([]Cell, cfg.WithDefaults().NumBuckets()*int(NumPaths)))}
	if got := tr.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a tracker that never recorded reports %+v, want %+v", got, want)
	}
	var agg Agg
	tr.MergeInto(&agg)
	if got := Summarize(cfg, agg); !reflect.DeepEqual(got, want) {
		t.Fatalf("merged, a tracker that never recorded reports %+v, want %+v", got, want)
	}
	tr.Record(30, 31, PathForward, geom.Pt(0, 0))
	if len(tr.ring) != tr.cfg.RingSize {
		t.Fatalf("after the first record the ring holds %d entries, want %d", len(tr.ring), tr.cfg.RingSize)
	}
	if s := tr.Snapshot(); s.Recorded != 1 || s.Outstanding != 1 {
		t.Fatalf("totals after the first record = %+v", s.Totals)
	}
}

// TestConfigBudget is a ratchet: Config had 7 fields before adaptive
// routing went with its smoothing factor and takeover margins, and 4 before
// drift retraining went with the error EWMA's. A new field needs two
// callers that want different values — and then this number moves.
func TestConfigBudget(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > 3 {
		t.Errorf("evalq.Config has %d fields, budget is 3", n)
	}
}

func TestMergeInto(t *testing.T) {
	cfg := Config{Buckets: []int{10}}
	a, b := New(cfg), New(cfg)
	a.Record(0, 5, PathForward, geom.Pt(0, 0))
	a.Observe(1, make([]geom.Point, 5))
	b.Record(0, 50, PathBackward, geom.Pt(3, 4))
	b.Observe(1, make([]geom.Point, 50))
	b.Record(0, 9, PathForward, geom.Pt(0, 0)) // outstanding

	var agg Agg
	a.MergeInto(&agg)
	b.MergeInto(&agg)
	if agg.Scored != 2 || agg.Recorded != 3 || agg.Outstanding != 1 {
		t.Fatalf("agg totals = %+v", agg.Totals)
	}
	s := Summarize(cfg, agg)
	var attempts uint64
	for _, c := range s.Cells {
		attempts += c.Attempts
	}
	if attempts != 2 {
		t.Errorf("summed attempts = %d, want 2", attempts)
	}
}

// TestConcurrentRecordObserve exercises the tracker under parallel
// recording, scoring and snapshotting (run with -race).
func TestConcurrentRecordObserve(t *testing.T) {
	tr := New(Config{RingSize: 32})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Record(i, i+1+g, PathForward, geom.Pt(float64(i), 0))
				tr.Observe(i, []geom.Point{geom.Pt(float64(i), 0)})
				if i%50 == 0 {
					tr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	s := tr.Snapshot()
	if s.Recorded == 0 {
		t.Error("nothing recorded")
	}
}
