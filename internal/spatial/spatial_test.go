package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpm/internal/geom"
)

func TestBucketHorizon(t *testing.T) {
	ix := New(Config{CellSize: 100})
	cases := map[int]int{1: 5, 5: 5, 6: 10, 10: 10, 11: 20, 50: 50, 51: 100, 200: 200, 201: 200, 10000: 200}
	for h, want := range cases {
		if got := ix.BucketHorizon(h); got != want {
			t.Errorf("BucketHorizon(%d) = %d, want %d", h, got, want)
		}
	}
}

// randomIndex fills an index with n objects at one horizon set and returns
// the ground-truth entries for brute-force comparison.
func randomIndex(t *testing.T, n int, rng *rand.Rand) (*Index, map[string]map[int]geom.Point) {
	t.Helper()
	ix := New(Config{CellSize: 250})
	truth := make(map[string]map[int]geom.Point, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj-%04d", i)
		entries := make([]Entry, 0, len(ix.Horizons()))
		truth[id] = make(map[int]geom.Point)
		for _, h := range ix.Horizons() {
			p := geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
			entries = append(entries, Entry{Horizon: h, Pos: p, Path: "fallback"})
			truth[id][h] = p
		}
		ix.Update(id, entries)
	}
	return ix, truth
}

func TestRangeMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix, truth := randomIndex(t, 500, rng)
	var rects []geom.Rect
	for trial := 0; trial < 50; trial++ {
		x, y := rng.Float64()*9000, rng.Float64()*9000
		rects = append(rects, geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+rng.Float64()*3000, y+rng.Float64()*3000)})
	}
	// Rects whose corners lie beyond the int32 cell range: their cell
	// coordinates must saturate, not wrap.
	inf := math.Inf(1)
	rects = append(rects,
		geom.Rect{Min: geom.Pt(-1e15, -1e15), Max: geom.Pt(1e15, 1e15)},
		geom.Rect{Min: geom.Pt(-inf, -inf), Max: geom.Pt(inf, inf)},
		geom.Rect{Min: geom.Pt(-inf, 2000), Max: geom.Pt(5000, inf)},
		geom.Rect{Min: geom.Pt(3000, -1e15), Max: geom.Pt(1e15, 7000)},
	)
	for trial, r := range rects {
		h := []int{3, 10, 42, 150, 999}[trial%5]
		bh := ix.BucketHorizon(h)

		var want []string
		for id, m := range truth {
			if r.Contains(m[bh]) {
				want = append(want, id)
			}
		}
		sort.Strings(want)

		got := ix.Range(r, h)
		var gotIDs []string
		for _, res := range got {
			gotIDs = append(gotIDs, res.ID)
			if res.Pos != truth[res.ID][bh] {
				t.Fatalf("trial %d: %s pos %v, want %v", trial, res.ID, res.Pos, truth[res.ID][bh])
			}
			if res.Horizon != bh {
				t.Fatalf("trial %d: horizon %d, want %d", trial, res.Horizon, bh)
			}
		}
		if !equalStrings(gotIDs, want) {
			t.Fatalf("trial %d: range mismatch: got %d ids, want %d", trial, len(gotIDs), len(want))
		}
	}
}

func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ix, truth := randomIndex(t, 400, rng)
	type query struct {
		p    geom.Point
		k, h int
	}
	var qs []query
	add := func(p geom.Point) {
		qs = append(qs, query{p: p, k: 1 + rng.Intn(20), h: []int{5, 20, 77}[len(qs)%3]})
	}
	for trial := 0; trial < 50; trial++ {
		add(geom.Pt(rng.Float64()*10000, rng.Float64()*10000))
	}
	// Query points far outside the fleet: the ring walk must start at the
	// occupied cells, so each answer costs what a near one does. The
	// watchdog fails a walk that instead expands rings from p.
	for _, v := range []float64{1e6, -1e6, 1e9, -1e9} {
		add(geom.Pt(v, 5000))
		add(geom.Pt(5000, v))
		add(geom.Pt(v, v))
		add(geom.Pt(v, -v))
	}
	answers := make([][]Result, len(qs))
	within(t, 5*time.Second, func() {
		for i, q := range qs {
			answers[i] = ix.Nearest(q.p, q.k, q.h)
		}
	})

	for trial, q := range qs {
		bh := ix.BucketHorizon(q.h)
		type cand struct {
			id string
			d  float64
		}
		var all []cand
		for id, m := range truth {
			all = append(all, cand{id, m[bh].Dist(q.p)})
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].d != all[j].d {
				return all[i].d < all[j].d
			}
			return all[i].id < all[j].id
		})

		got := answers[trial]
		if len(got) != q.k {
			t.Fatalf("trial %d p=%v: got %d results, want %d", trial, q.p, len(got), q.k)
		}
		for i, res := range got {
			if res.ID != all[i].id {
				t.Fatalf("trial %d p=%v: rank %d = %s (d=%.2f), want %s (d=%.2f)",
					trial, q.p, i, res.ID, res.Dist, all[i].id, all[i].d)
			}
		}
	}
}

// within runs fn and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("did not finish within %v", d)
	}
}

// TestConfigBudget is a ratchet: Config had 7 fields before the index lost
// its clock (aging, staleness and the injected Now). A new field needs two
// callers that want different values — and then this number moves.
func TestConfigBudget(t *testing.T) {
	if n := reflect.TypeOf(Config{}).NumField(); n > 2 {
		t.Errorf("spatial.Config has %d fields, budget is 2", n)
	}
}

func TestNearestMoreThanPopulation(t *testing.T) {
	ix := New(Config{CellSize: 100})
	ix.Update("a", []Entry{{Horizon: 5, Pos: geom.Pt(10, 10)}})
	ix.Update("b", []Entry{{Horizon: 5, Pos: geom.Pt(5000, 5000)}})
	got := ix.Nearest(geom.Pt(0, 0), 10, 5)
	if len(got) != 2 || got[0].ID != "a" || got[1].ID != "b" {
		t.Fatalf("got %+v, want [a b]", got)
	}
	if ix.Nearest(geom.Pt(0, 0), 0, 5) != nil {
		t.Error("k=0 should return nil")
	}
}

func TestRebinRemoveAndStats(t *testing.T) {
	ix := New(Config{CellSize: 100, Horizons: []int{5, 10}})
	ix.Update("x", []Entry{{Horizon: 5, Pos: geom.Pt(50, 50)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	st := ix.Stats()
	if st.Objects != 1 || st.Entries != 2 || st.Rebins != 0 {
		t.Fatalf("after insert: %+v", st)
	}
	// Same cell: in-place overwrite, no rebin.
	ix.Update("x", []Entry{{Horizon: 5, Pos: geom.Pt(55, 55)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	if st = ix.Stats(); st.Rebins != 0 {
		t.Fatalf("same-cell update caused rebin: %+v", st)
	}
	if got := ix.Range(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 5); len(got) != 1 || got[0].Pos != geom.Pt(55, 55) {
		t.Fatalf("in-place overwrite not visible: %+v", got)
	}
	// Cross a cell boundary: one rebin.
	ix.Update("x", []Entry{{Horizon: 5, Pos: geom.Pt(950, 950)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	if st = ix.Stats(); st.Rebins != 1 {
		t.Fatalf("boundary crossing: %+v", st)
	}
	// A bucket missing from the update is dropped.
	ix.Update("x", []Entry{{Horizon: 5, Pos: geom.Pt(950, 950)}})
	if st = ix.Stats(); st.Entries != 1 {
		t.Fatalf("stale bucket not dropped: %+v", st)
	}
	if got := ix.Range(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 10); len(got) != 0 {
		t.Fatalf("ghost entry after bucket drop: %+v", got)
	}
	ix.Remove("x")
	ix.Remove("x") // idempotent
	if st = ix.Stats(); st.Objects != 0 || st.Entries != 0 {
		t.Fatalf("after remove: %+v", st)
	}
	if got := ix.Range(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(10000, 10000)}, 5); len(got) != 0 {
		t.Fatalf("entries survive remove: %+v", got)
	}
}

func TestConcurrentUpdateQueryRemove(t *testing.T) {
	ix := New(Config{CellSize: 200})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("o%d-%d", w, i%50)
				var entries []Entry
				for _, h := range ix.Horizons() {
					entries = append(entries, Entry{Horizon: h, Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)})
				}
				ix.Update(id, entries)
				if i%7 == 0 {
					ix.Remove(id)
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + q)))
			for !stop.Load() {
				x, y := rng.Float64()*8000, rng.Float64()*8000
				ix.Range(geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+2000, y+2000)}, 10)
				ix.Nearest(geom.Pt(x, y), 5, 50)
			}
		}(q)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
