package hpa

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// TestPredictConcurrentStatsExact hammers Predict from many goroutines and
// checks the atomic counters add up exactly: every query must land in
// precisely one outcome bucket, with no lost increments. Run under -race
// this also proves the query path itself is write-free.
func TestPredictConcurrentStatsExact(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 2, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})

	near := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}

	const goroutines = 16
	const perG = 200 // per goroutine: FQP, BQP and fallback queries
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := eng.Predict(Query{Recent: near, Tq: 2}); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Predict(Query{Recent: near, Tq: 5}); err != nil {
					t.Error(err)
					return
				}
				if _, err := eng.Predict(Query{Recent: far, Tq: 2}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	s := eng.Stats()
	want := goroutines * perG
	if s.Forward != want || s.Backward != want || s.Fallback != want || s.Unanswered != 0 {
		t.Errorf("stats = %+v, want %d forward, %d backward, %d fallback", s, want, want, want)
	}
	if s.Queries != 3*want {
		t.Errorf("Queries = %d, want %d", s.Queries, 3*want)
	}
	if s.Queries != s.Forward+s.Backward+s.Fallback+s.Unanswered {
		t.Errorf("partition identity violated: %+v", s)
	}
	if s.NodesVisited == 0 {
		t.Error("no nodes counted")
	}
}

// TestConcurrentRankedListBuilds: 16 goroutines issue BQPs on a fresh
// engine, so they race to build the same offsets' ranked lists. Every
// goroutine must see one list per offset — built once, whoever got there
// first — and every answer must equal a quiet engine's. A second round
// re-weights a delta of rules first, serially, so the goroutines race to
// rebuild the lists it dropped.
func TestConcurrentRankedListBuilds(t *testing.T) {
	const period = 40
	var offsets []int
	for off := 0; off < period; off += 2 {
		offsets = append(offsets, off)
	}
	var rules [][3]float64
	for c := 2; c < len(offsets); c++ {
		for p := 0; p < 2; p++ {
			rules = append(rules, [3]float64{float64(p), float64(c), 0.3 + 0.05*float64((7*c+p)%13)})
		}
	}
	cfg := Config{Period: period, DistantThreshold: 3, TimeRelaxation: 2, PenalizePremise: true}
	quiet, busy := handEngine(t, cfg, offsets, rules), handEngine(t, cfg, offsets, rules)
	premises := [][]pattern.RegionID{nil, {0}, {1}, {0, 1}}
	type query struct{ v, tc, tq int }
	var queries []query
	for v := range premises {
		for tc := 0; tc < period; tc += 3 {
			for tq := tc + 3; tq <= tc+period; tq += 5 {
				queries = append(queries, query{v, tc, tq})
			}
		}
	}

	// Odd goroutines ask for every list before querying, even ones after,
	// so lists are built by queries and by direct requests at once. A list
	// built twice would reach someone other than the one finally published.
	round := func() []*rankedList {
		want := map[query][]Prediction{}
		for _, q := range queries {
			want[q] = quiet.BackwardQuery(premises[q.v], q.tc, q.tq, 3)
		}
		const goroutines = 16
		seen := make([][]*rankedList, goroutines)
		lists := func(g int) {
			for off, n := range busy.liveAt {
				if n > 0 {
					seen[g] = append(seen[g], busy.rankedAt(off))
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if g%2 == 1 {
					lists(g)
				}
				for i := range queries {
					q := queries[(i+g*len(queries)/goroutines)%len(queries)] // each starts elsewhere
					if got := busy.BackwardQuery(premises[q.v], q.tc, q.tq, 3); !reflect.DeepEqual(got, want[q]) {
						t.Errorf("goroutine %d %+v: %+v, quiet engine %+v", g, q, got, want[q])
						return
					}
				}
				if g%2 == 0 {
					lists(g)
				}
			}(g)
		}
		wg.Wait()
		for g := 1; g < goroutines; g++ {
			if !slices.Equal(seen[g], seen[0]) {
				t.Fatalf("goroutines 0 and %d were handed different lists", g)
			}
		}
		checkRanked(t, busy)
		return seen[0]
	}
	first := round()

	// Every third rule re-weighted, on both engines alike.
	var ups []ruleUpdate
	for ref := 0; ref < len(rules); ref += 3 {
		ups = append(ups, ruleUpdate{ref, 1.1 - rules[ref][2], 1})
	}
	updateAll(quiet, ups)
	updateAll(busy, ups)
	second := round()
	rebuilt := 0
	for i := range first {
		if first[i] != second[i] {
			rebuilt++
		}
	}
	if rebuilt == 0 || rebuilt == len(first) {
		t.Errorf("%d of %d lists rebuilt after re-weighting every third rule", rebuilt, len(first))
	}
}

// TestConcurrentMixedQueryKinds runs Predict, PredictBatch, PredictRange,
// ForwardQuery, BackwardQuery, EncodeRecent and Stats concurrently — the
// full read surface the engine documents as safe — and checks the answers
// stay identical to a quiet single-threaded run.
func TestConcurrentMixedQueryKinds(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 2, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	wantNear, err := eng.Predict(Query{Recent: recent, Tq: 2, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantFar, err := eng.Predict(Query{Recent: recent, Tq: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()

	var wg sync.WaitGroup
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch g % 4 {
				case 0:
					got, err := eng.Predict(Query{Recent: recent, Tq: 2, K: 2})
					if err != nil {
						t.Error(err)
						return
					}
					if len(got) != len(wantNear) || got[0] != wantNear[0] {
						t.Errorf("concurrent Predict diverged: %+v vs %+v", got, wantNear)
						return
					}
				case 1:
					batch, err := eng.PredictBatch(recent, []int{2, 5}, 2)
					if err != nil {
						t.Error(err)
						return
					}
					if len(batch) != 2 || len(batch[0]) != len(wantNear) || batch[0][0] != wantNear[0] {
						t.Errorf("concurrent PredictBatch diverged: %+v", batch)
						return
					}
					if len(batch[1]) == 0 || batch[1][0] != wantFar[0] {
						t.Errorf("concurrent PredictBatch BQP diverged: %+v", batch[1])
						return
					}
				case 2:
					if _, err := eng.PredictRange(recent, 2, 5); err != nil {
						t.Error(err)
						return
					}
				default:
					visited := eng.EncodeRecent(recent)
					eng.ForwardQuery(visited, 2, 1)
					eng.BackwardQuery(visited, 1, 5, 1)
					_ = eng.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	// Three goroutines Predict near, three batch one near and one far time;
	// ranges and the bare query paths count nothing.
	s := eng.Stats()
	if d := s.Forward - before.Forward; d != 600 {
		t.Errorf("forward grew by %d, want 600", d)
	}
	if d := s.Backward - before.Backward; d != 300 {
		t.Errorf("backward grew by %d, want 300", d)
	}
	if d := s.Queries - before.Queries; d != 900 {
		t.Errorf("queries grew by %d, want 900", d)
	}
}
