package evalq

import (
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
	scored, _, _ := tr.Observe(101, pts)
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
	scored, _, _ := tr.Observe(100, pts)
	if scored != 4 {
		t.Errorf("scored = %d, want 4", scored)
	}
}

func TestExpiry(t *testing.T) {
	tr := New(Config{})
	tr.Record(0, 5, PathForward, geom.Pt(0, 0))
	// The stream jumps past tq=5: the entry expires rather than scoring
	// against the wrong timestamp.
	scored, _, _ := tr.Observe(6, []geom.Point{geom.Pt(1, 1)})
	if scored != 0 {
		t.Fatalf("scored = %d, want 0", scored)
	}
	if s := tr.Snapshot(); s.Expired != 1 || s.Outstanding != 0 {
		t.Errorf("totals = %+v", s.Totals)
	}
}

func TestEWMADriftSignal(t *testing.T) {
	tr := New(Config{EWMAAlpha: 0.5, Buckets: []int{10}})
	var ewma float64
	var n int
	for i := 0; i < 20; i++ {
		now := i * 2
		tr.Record(now, now+1, PathForward, geom.Pt(0, 0))
		_, ewma, n = tr.Observe(now+1, []geom.Point{geom.Pt(100, 0)})
	}
	if n != 20 {
		t.Fatalf("sinceReset = %d, want 20", n)
	}
	if ewma < 99 || ewma > 100 {
		t.Fatalf("ewma = %v, want ~100", ewma)
	}
	tr.ResetEWMA()
	if _, e, n := tr.Observe(10000, nil); e != 0 || n != 0 {
		t.Errorf("after reset: ewma %v, sinceReset %d", e, n)
	}
}

func TestBestPathTwoWay(t *testing.T) {
	tr := New(Config{HitDistance: 10, Buckets: []int{100}})
	// 30 backward predictions that miss, 30 fallbacks that hit, all at
	// horizon 60 (bucket 0).
	for i := 0; i < 30; i++ {
		now := i * 100
		tq := now + 60
		tr.Record(now, tq, PathBackward, geom.Pt(999, 999))
		tr.Record(now, tq, PathFallback, geom.Pt(0, 0))
		pts := make([]geom.Point, 60)
		tr.Observe(now+1, pts)
	}
	twoWay := []Path{PathBackward, PathFallback}
	if tr.BestPath(60, twoWay, 20) != PathFallback {
		t.Error("losing backward path not routed to fallback")
	}
	if tr.BestPath(60, twoWay, 100) != PathBackward {
		t.Error("routed below the sample floor")
	}
	if tr.BestPath(60, []Path{PathFallback, PathBackward}, 1) != PathFallback {
		t.Error("a leading default was routed away from")
	}
	// The other bucket has no samples at all.
	if tr.BestPath(500, twoWay, 1) != PathBackward {
		t.Error("routed in an empty bucket")
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
					tr.BestPath(5, []Path{PathForward, PathFallback}, 1)
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
