package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"hpm"
	"hpm/internal/spatial"
)

func rct(x0, y0, x1, y1 float64) hpm.Rect {
	return hpm.Rect{Min: hpm.Pt(x0, y0), Max: hpm.Pt(x1, y1)}
}

func fleetStore(t *testing.T, opts Options) *Store {
	t.Helper()
	if opts.FleetIndex == nil {
		opts.FleetIndex = &spatial.Config{CellSize: 50}
	}
	return testStore(t, opts)
}

func TestFleetQueryDisabled(t *testing.T) {
	s := testStore(t, Options{})
	if _, err := queryRange(s, rct(0, 0, 1, 1), 5); err != ErrNoFleetIndex {
		t.Errorf("QueryRange without index: %v, want ErrNoFleetIndex", err)
	}
	if _, err := queryNearest(s, hpm.Pt(0, 0), 3, 5); err != ErrNoFleetIndex {
		t.Errorf("QueryNearest without index: %v, want ErrNoFleetIndex", err)
	}
	if s.fleetHorizons() != nil {
		t.Error("disabled store reports an index")
	}
	if fs := s.FleetStats(); fs.FleetIndex {
		t.Error("FleetStats.FleetIndex true without index")
	}
}

func TestFleetQueryValidation(t *testing.T) {
	s := fleetStore(t, Options{})
	if _, err := queryRange(s, rct(0, 0, 1, 1), 0); err == nil {
		t.Error("horizon 0 accepted")
	}
	if _, err := queryRange(s, rct(5, 5, 1, 1), 10); err == nil {
		t.Error("inverted rect accepted")
	}
	if _, err := queryNearest(s, hpm.Pt(0, 0), 0, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := queryNearest(s, hpm.Pt(math.NaN(), 0), 3, 10); err == nil {
		t.Error("NaN query point accepted")
	}
	if _, err := New(Options{
		Config:     hpm.Config{Period: period},
		FleetIndex: &spatial.Config{},
	}); err == nil {
		t.Error("FleetIndex without CellSize accepted")
	}
}

// TestIndexMatchesScanAllDatasets is the identity property the whole design
// rests on: range and kNN answers from the incrementally maintained index
// are exactly the brute-force answers recomputed from live models — across
// all four paper datasets, with trained and untrained objects mixed.
func TestIndexMatchesScanAllDatasets(t *testing.T) {
	for _, kind := range []hpm.Dataset{hpm.DatasetBike, hpm.DatasetCow, hpm.DatasetCar, hpm.DatasetAirplane} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			s := fleetStore(t, Options{MinTrainPeriods: 3})
			const objects = 12
			for i := 0; i < objects; i++ {
				spec := hpm.DefaultDatasetSpec(kind, int64(100*i+7))
				spec.Period = s.Period()
				// Every third object stays below MinTrainPeriods so the
				// extrapolation path is exercised alongside the models.
				spec.SubTrajectories = 5
				if i%3 == 2 {
					spec.SubTrajectories = 1
				}
				tr := hpm.GenerateDataset(spec)
				id := fmt.Sprintf("%s-%d", kind, i)
				if err := s.ObserveBatch(id, tr.Points()); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(int64(kind) + 1))
			horizons := []int{1, 5, 17, 50, 120, 500}
			for trial := 0; trial < 40; trial++ {
				h := horizons[trial%len(horizons)]
				cx, cy := rng.Float64()*900-200, rng.Float64()*900-200
				w, ht := rng.Float64()*600, rng.Float64()*600
				r := rct(cx, cy, cx+w, cy+ht)
				got, err := queryRange(s, r, h)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.ScanRange(r, h)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d h=%d rect=%v:\nindex: %v\nscan:  %v", trial, h, r, got, want)
				}

				k := 1 + rng.Intn(objects+3)
				p := hpm.Pt(cx, cy)
				gotK, err := queryNearest(s, p, k, h)
				if err != nil {
					t.Fatal(err)
				}
				wantK, err := s.scanNearest(p, k, h)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotK, wantK) {
					t.Fatalf("trial %d h=%d k=%d p=%v:\nindex: %v\nscan:  %v", trial, h, k, p, gotK, wantK)
				}
			}
			// An infinite rect is valid and holds every object.
			inf := math.Inf(1)
			r := rct(-inf, -inf, inf, inf)
			got, err := queryRange(s, r, 10)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.ScanRange(r, 10)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != objects || !reflect.DeepEqual(got, want) {
				t.Fatalf("rect=%v:\nindex: %v\nscan:  %v", r, got, want)
			}
		})
	}
}

// TestIndexSurvivesRestart checks both recovery paths: the snapshot restore
// and a WAL tail replayed on top, with the index enabled via the process
// options on reopen.
func TestIndexSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
		WALNoSync:       true,
		FleetIndex:      &spatial.Config{CellSize: 50},
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	feed(t, s, "bike", 9, 5)
	all := rct(-1e6, -1e6, 1e6, 1e6)
	before, err := queryRange(s, all, 20)
	if err != nil || len(before) != 1 {
		t.Fatalf("pre-restart query: %v, %v", before, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	after, err := queryRange(s2, all, 20)
	if err != nil || len(after) != 1 || after[0].ID != "bike" {
		t.Fatalf("post-restart query: %v, %v", after, err)
	}
	want, err := s2.ScanRange(all, 20)
	if err != nil || !reflect.DeepEqual(after, want) {
		t.Fatalf("post-restart index != scan:\nindex: %v\nscan:  %v (%v)", after, want, err)
	}
}

func TestFleetStatsSpatial(t *testing.T) {
	s := fleetStore(t, Options{MinTrainPeriods: 1 << 20})
	feed(t, s, "a", 1, 2)
	if _, err := queryRange(s, rct(-1e6, -1e6, 1e6, 1e6), 10); err != nil {
		t.Fatal(err)
	}
	fs := s.FleetStats()
	if !fs.FleetIndex {
		t.Fatal("FleetStats.FleetIndex false")
	}
	if fs.Spatial.Objects != 1 || fs.Spatial.Updates == 0 || fs.Spatial.RangeQueries != 1 {
		t.Errorf("spatial stats = %+v", fs.Spatial)
	}
	// Only the bucket the one query read is maintained.
	if fs.Spatial.Entries != 1 || fs.Spatial.LiveBuckets != 1 || fs.Spatial.Builds != 1 {
		t.Errorf("entries, live buckets, builds = %d, %d, %d, want 1, 1, 1",
			fs.Spatial.Entries, fs.Spatial.LiveBuckets, fs.Spatial.Builds)
	}
}

// TestUnreadBucketsCostNothing pins what a refresh costs: nothing until a
// fleet query reads a bucket, then one model evaluation per live bucket.
func TestUnreadBucketsCostNothing(t *testing.T) {
	s := fleetStore(t, Options{MinTrainPeriods: 3})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = period
	spec.SubTrajectories = 6
	pts := hpm.GenerateDataset(spec).Points()
	if err := s.ObserveBatch("bike", pts[:5*period]); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("cold", walPoints(0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	next := 5 * period // the sixth period: no observe below completes it
	cost := func() int {
		t.Helper()
		before := s.FleetStats().Queries.Queries
		if err := s.ObserveBatch("bike", []hpm.Point{pts[next]}); err != nil {
			t.Fatal(err)
		}
		next++
		return s.FleetStats().Queries.Queries - before
	}
	for i := 0; i < 3; i++ {
		if c := cost(); c != 0 {
			t.Fatalf("observe %d before any fleet query cost %d model evaluations, want 0", i, c)
		}
	}
	if st := s.FleetStats().Spatial; st.Updates != 0 || st.Objects != 0 || st.LiveBuckets != 0 {
		t.Fatalf("index touched before any fleet query: %+v", st)
	}

	all := rct(-1e6, -1e6, 1e6, 1e6)
	if res, err := queryRange(s, all, 5); err != nil || len(res) != 2 {
		t.Fatalf("range at h=5: %v, %v", res, err)
	}
	for i := 0; i < 3; i++ {
		if c := cost(); c != 1 {
			t.Fatalf("observe %d with bucket 5 live cost %d model evaluations, want 1", i, c)
		}
	}
	if _, err := queryNearest(s, hpm.Pt(0, 0), 1, 200); err != nil {
		t.Fatal(err)
	}
	// A horizon that bucket 5 answers reads no new bucket.
	if _, err := queryRange(s, all, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if c := cost(); c != 2 {
			t.Fatalf("observe %d with buckets 5 and 200 live cost %d model evaluations, want 2", i, c)
		}
	}
	if st := s.FleetStats().Spatial; st.LiveBuckets != 2 || st.Builds != 2 || st.Entries != 4 {
		t.Errorf("live buckets, builds, entries = %d, %d, %d, want 2, 2, 4", st.LiveBuckets, st.Builds, st.Entries)
	}
}

// TestBucketBuildUnderWrites races the first query of every bucket against
// single and bulk writers that carry trained objects over period
// boundaries, a writer that adds new objects and a first train's install.
// Every answer must hold
// the quiet objects — written before the race and not during it — exactly
// as a scan computed before the race does: a query never reads a bucket
// its build has not finished. Once the racers stop, the index equals the
// scan at every bucket. Meant for -race.
func TestBucketBuildUnderWrites(t *testing.T) {
	s := fleetStore(t, Options{MinTrainPeriods: 3})
	track := func(kind hpm.Dataset, seed int64, periods int) []hpm.Point {
		spec := hpm.DefaultDatasetSpec(kind, seed)
		spec.Period = period
		spec.SubTrajectories = periods
		return hpm.GenerateDataset(spec).Points()
	}
	observe := func(id string, pts []hpm.Point) {
		t.Helper()
		if err := s.ObserveBatch(id, pts); err != nil {
			t.Fatal(err)
		}
	}
	// Quiet objects: three trained, the rest cold.
	quiet := map[string]bool{}
	for i, kind := range []hpm.Dataset{hpm.DatasetBike, hpm.DatasetCow, hpm.DatasetCar} {
		id := fmt.Sprintf("quiet-%d", i)
		quiet[id] = true
		observe(id, track(kind, int64(10+i), 4))
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 150; i++ {
		id := fmt.Sprintf("quiet-cold-%03d", i)
		quiet[id] = true
		p := hpm.Pt(rng.Float64()*1000, rng.Float64()*1000)
		observe(id, []hpm.Point{p, p.Add(hpm.Pt(rng.Float64()*10, rng.Float64()*10))})
	}
	// Racing objects trained before the race, so their writes run Extend.
	single := track(hpm.DatasetBike, 20, 12)
	observe("single", single[:3*period])
	bulk := make([][]hpm.Point, 3)
	for i := range bulk {
		bulk[i] = track(hpm.DatasetCar, int64(30+i), 12)
		observe(fmt.Sprintf("bulk-%d", i), bulk[i][:3*period])
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	inf := math.Inf(1)
	all := rct(-inf, -inf, inf, inf)
	origin := hpm.Pt(500, 500)
	const everyone = 1 << 20
	onlyQuiet := func(rs []spatial.Result) []spatial.Result {
		var out []spatial.Result
		for _, r := range rs {
			if quiet[r.ID] {
				out = append(out, r)
			}
		}
		return out
	}
	horizons := s.fleetHorizons()
	wantRange := make([][]spatial.Result, len(horizons))
	wantKNN := make([][]spatial.Result, len(horizons))
	for b, h := range horizons {
		rs, err := s.ScanRange(all, h)
		if err != nil {
			t.Fatal(err)
		}
		ks, err := s.scanNearest(origin, everyone, h)
		if err != nil {
			t.Fatal(err)
		}
		wantRange[b], wantKNN[b] = onlyQuiet(rs), onlyQuiet(ks)
		if len(wantRange[b]) != len(quiet) {
			t.Fatalf("scan at h=%d holds %d quiet objects, want %d", h, len(wantRange[b]), len(quiet))
		}
	}
	if st := s.FleetStats().Spatial; st.Builds != 0 {
		t.Fatalf("scans built %d buckets", st.Builds)
	}

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	race := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	race(func() { // one point at a time
		for i := 0; !stopped(); i++ {
			if err := s.ObserveBatch("single", []hpm.Point{single[3*period+i%(9*period)]}); err != nil {
				t.Error(err)
				return
			}
		}
	})
	race(func() { // several objects per call, seven points each
		for off := 0; !stopped(); off += 7 {
			var obs []Observation
			for i := range bulk {
				o := 3*period + off%(9*period-7)
				obs = append(obs, Observation{ID: fmt.Sprintf("bulk-%d", i), Points: bulk[i][o : o+7]})
			}
			if err := s.ObserveAll(obs); err != nil {
				t.Error(err)
				return
			}
		}
	})
	race(func() { // objects that appear while a build lists the fleet
		for i := 0; i < 400 && !stopped(); i++ {
			if err := s.ObserveBatch(fmt.Sprintf("new-%03d", i), walPoints(i, 5)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	race(func() { // reaches MinTrainPeriods mid-race: a first train installs
		fresh := track(hpm.DatasetCow, 40, 4)
		for off := 0; off < len(fresh) && !stopped(); off += 20 {
			if err := s.ObserveBatch("fresh", fresh[off:off+20]); err != nil {
				t.Error(err)
				return
			}
		}
	})
	start := make(chan struct{})
	for q := 0; q < 3*len(horizons); q++ {
		race(func() {
			<-start
			for i := q; !stopped(); i++ {
				b := i % len(horizons)
				h := horizons[b]
				rs, err := queryRange(s, all, h)
				if err != nil {
					t.Error(err)
					return
				}
				if got := onlyQuiet(rs); !reflect.DeepEqual(got, wantRange[b]) {
					t.Errorf("range at h=%d holds %d of %d quiet objects, or not as scanned", h, len(got), len(wantRange[b]))
					return
				}
				ks, err := queryNearest(s, origin, everyone, h)
				if err != nil {
					t.Error(err)
					return
				}
				if got := onlyQuiet(ks); !reflect.DeepEqual(got, wantKNN[b]) {
					t.Errorf("kNN at h=%d holds %d of %d quiet objects, or not as scanned", h, len(got), len(wantKNN[b]))
					return
				}
			}
		})
	}
	close(start)
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}

	if st := s.FleetStats().Spatial; st.Builds != int64(len(horizons)) || st.LiveBuckets != int64(len(horizons)) {
		t.Errorf("builds, live buckets = %d, %d, want %d each", st.Builds, st.LiveBuckets, len(horizons))
	}
	for _, h := range horizons {
		for _, r := range []hpm.Rect{all, rct(0, 0, 400, 400), rct(300, -200, 900, 700)} {
			got, err1 := queryRange(s, r, h)
			want, err2 := s.ScanRange(r, h)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("h=%d rect=%v (%v, %v):\nindex: %v\nscan:  %v", h, r, err1, err2, got, want)
			}
		}
		for _, k := range []int{1, 7, everyone} {
			got, err1 := queryNearest(s, origin, k, h)
			want, err2 := s.scanNearest(origin, k, h)
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("h=%d k=%d (%v, %v):\nindex: %v\nscan:  %v", h, k, err1, err2, got, want)
			}
		}
	}
}

// TestFleetQueryHammer races ingest and first-train installs
// against concurrent range and kNN queries. Run under -race it pins the
// locking design; assertions are minimal because the interleavings are
// nondeterministic.
func TestFleetQueryHammer(t *testing.T) {
	s := fleetStore(t, Options{MinTrainPeriods: 2})
	stop := make(chan struct{})
	time.AfterFunc(300*time.Millisecond, func() { close(stop) })
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := hpm.DefaultDatasetSpec(hpm.DatasetCar, int64(w))
			spec.Period = period
			spec.SubTrajectories = 8
			pts := hpm.GenerateDataset(spec).Points()
			id := fmt.Sprintf("obj-%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := (i * 7) % (len(pts) - 7)
				if err := s.ObserveBatch(id, pts[off:off+7]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := hpm.Pt(rng.Float64()*500, rng.Float64()*500)
				if _, err := queryRange(s, rct(c.X-100, c.Y-100, c.X+100, c.Y+100), 10); err != nil {
					t.Error(err)
					return
				}
				if _, err := queryNearest(s, c, 2, 50); err != nil {
					t.Error(err)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenRefusesBadHorizons: the index and the evaluator bucket a horizon
// by the first bound at or above it, so Open refuses bounds that are not
// positive and strictly ascending, and horizons the index cannot track in
// its 64-bucket mask.
func TestOpenRefusesBadHorizons(t *testing.T) {
	many := make([]int, spatial.MaxHorizons+1)
	for i := range many {
		many[i] = i + 1
	}
	cases := []struct {
		name           string
		index, buckets []int
		withIndex, ok  bool
	}{
		{"defaults", nil, nil, true, true},
		{"index horizons ascending", []int{1, 2, 300}, nil, true, true},
		{"index at the bucket limit", many[:spatial.MaxHorizons], nil, true, true},
		{"index horizons unsorted", []int{10, 5, 20}, nil, true, false},
		{"index horizons duplicated", []int{5, 10, 10}, nil, true, false},
		{"index horizon zero", []int{0, 5}, nil, true, false},
		{"index horizon negative", []int{-5, 5}, nil, true, false},
		{"index over the bucket limit", many, nil, true, false},
		{"eval buckets unsorted", nil, []int{20, 10}, false, false},
		{"eval buckets duplicated", nil, []int{5, 5}, false, false},
		{"eval buckets feeding the index past the limit", nil, many, true, false},
		{"eval buckets past the limit, no index", nil, many, false, true},
		{"eval buckets unsorted, index horizons set", []int{5, 10}, []int{10, 5}, true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Config: hpm.Config{Period: 10}}
			opts.Eval.Buckets = c.buckets
			if c.withIndex {
				opts.FleetIndex = &spatial.Config{CellSize: 50, Horizons: c.index}
			}
			s, err := Open(t.TempDir(), opts)
			if err == nil {
				s.Close()
			}
			if (err == nil) != c.ok {
				t.Fatalf("Open: err = %v, want ok=%v", err, c.ok)
			}
		})
	}
}

// scanNearest answers a kNN query by brute force over every object.
func (s *Store) scanNearest(p hpm.Point, k, horizon int) ([]spatial.Result, error) {
	if s.index == nil {
		return nil, ErrNoFleetIndex
	}
	if err := validateFleetQuery(horizon); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("store: k must be positive, got %d", k)
	}
	if !p.IsFinite() {
		return nil, fmt.Errorf("store: non-finite query point")
	}
	bh := s.index.BucketHorizon(horizon)
	var out []spatial.Result
	for _, obj := range s.listObjects() {
		if e, ok := s.scanEntry(obj, bh); ok {
			out = append(out, spatial.Result{ID: obj.id, Pos: e.Pos, Path: e.Path, Horizon: bh, Dist: e.Pos.Dist(p)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// fleetHorizons returns the index's horizon buckets (nil when disabled).
func (s *Store) fleetHorizons() []int {
	if s.index == nil {
		return nil
	}
	return s.index.Horizons()
}
