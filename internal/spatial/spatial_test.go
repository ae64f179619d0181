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
	x := ix.Add("x")
	ix.Set(x, []Entry{{Horizon: 5, Pos: geom.Pt(50, 50)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	st := ix.Stats()
	if st.Objects != 1 || st.Entries != 2 || st.Rebins != 0 {
		t.Fatalf("after insert: %+v", st)
	}
	// Same cell: in-place overwrite, no rebin.
	ix.Set(x, []Entry{{Horizon: 5, Pos: geom.Pt(55, 55)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	if st = ix.Stats(); st.Rebins != 0 {
		t.Fatalf("same-cell update caused rebin: %+v", st)
	}
	if got := ix.Range(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 5); len(got) != 1 || got[0].Pos != geom.Pt(55, 55) {
		t.Fatalf("in-place overwrite not visible: %+v", got)
	}
	// Cross a cell boundary: one rebin.
	ix.Set(x, []Entry{{Horizon: 5, Pos: geom.Pt(950, 950)}, {Horizon: 10, Pos: geom.Pt(60, 60)}})
	if st = ix.Stats(); st.Rebins != 1 {
		t.Fatalf("boundary crossing: %+v", st)
	}
	// A bucket missing from the update is dropped.
	ix.Set(x, []Entry{{Horizon: 5, Pos: geom.Pt(950, 950)}})
	if st = ix.Stats(); st.Entries != 1 {
		t.Fatalf("stale bucket not dropped: %+v", st)
	}
	if got := ix.Range(geom.Rect{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}, 10); len(got) != 0 {
		t.Fatalf("ghost entry after bucket drop: %+v", got)
	}
	// An update with no entries removes every one; the slot stays its own.
	ix.Set(x, nil)
	if st = ix.Stats(); st.Objects != 1 || st.Entries != 0 {
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
			slots := make(map[string]Slot)
			for i := 0; !stop.Load(); i++ {
				id := fmt.Sprintf("o%d-%d", w, i%50)
				var entries []Entry
				for _, h := range ix.Horizons() {
					entries = append(entries, Entry{Horizon: h, Pos: geom.Pt(rng.Float64()*10000, rng.Float64()*10000)})
				}
				s, ok := slots[id]
				if !ok {
					s = ix.Add(id)
					slots[id] = s
				}
				if i%7 == 0 {
					entries = nil // unlink every entry of the slot
				}
				ix.Set(s, entries)
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
				for _, res := range ix.Range(geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+2000, y+2000)}, 10) {
					if res.ID == "" {
						t.Error("a range result carries an empty id")
						return
					}
				}
				ix.Nearest(geom.Pt(x, y), 5, 50)
			}
		}(q)
	}
	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// FuzzIndexOps reads op bytes as Set and Add steps over a pool of eight
// names on a 3-horizon index of 10-unit cells over a 64-unit square, so
// entries share cells, re-bin and swap-remove one another, and an update
// that omits a bucket unlinks its entry. An Add step moves a name on to a
// fresh id, whose slot must be new; the old id keeps its entries. Some ids
// are interned through Update instead of Add and Set. After every op the
// index must agree with a map of each id's entries: Range over the whole
// plane and over a random rect, and Nearest, against brute force over the
// map, and Stats' object and entry counts against its size. Whole-plane
// equality is what catches a slot answering with another object's id or
// entry. The seeds run under plain go test.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte("\x00\x10\x20\x01\x11\x21\x02\x12\x22\x03\x03\x00\x33\x44\x01\x55"))
	seq := make([]byte, 900)
	rand.New(rand.NewSource(5)).Read(seq)
	f.Add(seq)
	horizons := []int{5, 10, 20}
	plane := geom.Rect{Min: geom.Pt(math.Inf(-1), math.Inf(-1)), Max: geom.Pt(math.Inf(1), math.Inf(1))}
	f.Fuzz(func(t *testing.T, ops []byte) {
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		ix := New(Config{CellSize: 10, Horizons: horizons})
		slots := make(map[string]Slot)
		truth := make(map[string]map[int]Entry) // id → horizon → entry
		byName := make(map[string]bool)         // ids set through Update
		var gen [8]int                          // each name's current id
		paths := []string{"forward", "backward", "fallback", "extrapolation"}
		add := func(step int, id string) Slot {
			s := ix.Add(id)
			for other, o := range slots {
				if o == s {
					t.Fatalf("step %d: Add(%s) returned %s's slot %d", step, id, other, s)
				}
			}
			slots[id] = s
			return s
		}
		for step := 0; len(ops) > 0 && step < 300; step++ {
			op := next()
			name := op >> 2 & 7
			switch op & 3 {
			case 0: // add a fresh id under the name
				gen[name]++
				id := fmt.Sprintf("o%d.%d", name, gen[name])
				add(step, id)
				truth[id] = map[int]Entry{}
			default: // set some buckets, adding the id if it is not known
				id := fmt.Sprintf("o%d.%d", name, gen[name])
				s, ok := slots[id]
				if !ok && op&0x20 != 0 {
					byName[id] = true // interned by its first Update below
				} else if !ok {
					s = add(step, id)
				}
				mask := next()
				var entries []Entry
				m := make(map[int]Entry)
				for b, h := range horizons {
					if mask>>b&1 == 0 {
						continue
					}
					e := Entry{Horizon: h, Pos: geom.Pt(float64(next()%64), float64(next()%64)), Path: paths[mask>>4&3]}
					if prev, ok := truth[id][h]; ok && mask&8 != 0 {
						e = prev // unchanged: the elided write
					}
					entries = append(entries, e)
					m[h] = e
				}
				if mask&0x40 != 0 {
					entries = append(entries, Entry{Horizon: 7, Pos: geom.Pt(1, 1)}) // not a bucket: ignored
				}
				if byName[id] {
					ix.Update(id, entries)
					if !ok {
						s = ix.named[id]
						for other, o := range slots {
							if o == s {
								t.Fatalf("step %d: Update(%s) interned %s's slot %d", step, id, other, s)
							}
						}
						slots[id] = s
					}
				} else {
					ix.Set(s, entries)
				}
				truth[id] = m
			}
			checkIndex(t, ix, truth, plane)
			x, y := float64(next()%70)-3, float64(next()%70)-3
			checkIndex(t, ix, truth, geom.Rect{Min: geom.Pt(x, y), Max: geom.Pt(x+float64(next()%40), y+float64(next()%40))})
			checkNearest(t, ix, truth, geom.Pt(float64(next()%80)-8, float64(next()%80)-8), 1+next()%5)
		}
	})
}

// checkIndex holds Range over r at every horizon, and the index's object
// and entry counts, to the truth map.
func checkIndex(t *testing.T, ix *Index, truth map[string]map[int]Entry, r geom.Rect) {
	t.Helper()
	entries := 0
	for _, m := range truth {
		entries += len(m)
	}
	if st := ix.Stats(); st.Objects != int64(len(truth)) || st.Entries != int64(entries) {
		t.Fatalf("stats %d objects, %d entries; truth %d, %d", st.Objects, st.Entries, len(truth), entries)
	}
	for _, h := range ix.Horizons() {
		var want []Result
		for id, m := range truth {
			if e, ok := m[h]; ok && r.Contains(e.Pos) {
				want = append(want, Result{ID: id, Pos: e.Pos, Path: e.Path, Horizon: h})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
		if got := ix.Range(r, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("Range(%v, %d) = %+v\nbrute force %+v", r, h, got, want)
		}
	}
}

// checkNearest holds Nearest's k best at every horizon to brute force over
// the truth map.
func checkNearest(t *testing.T, ix *Index, truth map[string]map[int]Entry, p geom.Point, k int) {
	t.Helper()
	for _, h := range ix.Horizons() {
		var want []Result
		for id, m := range truth {
			if e, ok := m[h]; ok {
				want = append(want, Result{ID: id, Pos: e.Pos, Path: e.Path, Horizon: h, Dist: e.Pos.Dist(p)})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Dist != want[j].Dist {
				return want[i].Dist < want[j].Dist
			}
			return want[i].ID < want[j].ID
		})
		if len(want) > k {
			want = want[:k]
		}
		if got := ix.Nearest(p, k, h); !reflect.DeepEqual(got, want) {
			t.Fatalf("Nearest(%v, %d, %d) = %+v\nbrute force %+v", p, k, h, got, want)
		}
	}
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
