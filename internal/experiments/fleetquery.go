package experiments

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hpm"
	"hpm/internal/datagen"
	"hpm/internal/spatial"
	"hpm/serve"
	"hpm/store"
)

func init() {
	registerExtension("fleetquery", "fleet_query",
		"Fleet-wide predictive range/kNN queries: incrementally maintained spatial index vs brute-force scan, SSE push throughput, and per-observe maintenance overhead", fleetQuery)
}

// fleetSizes is the fleet-size sweep (objects tracked per store).
var fleetSizes = []int{1000, 10000, 100000}

// fleetSubscribers is the SSE push sweep.
var fleetSubscribers = []int{1, 4, 16}

// fleetTrained is how many objects get enough history to train a real
// model, so the identity checks cover pattern answers, motion fallbacks,
// and untrained extrapolation in one fleet.
const fleetTrained = 50

// fleetQuery measures what the spatial index buys:
//
//   - range and kNN query latency, indexed vs brute-force scan, at
//     1k/10k/100k objects. The scan recomputes every object's prediction
//     per query; the index answers from entries maintained on the observe
//     path, so the gap widens linearly with fleet size;
//   - the identity proof: on every sampled query both answers are compared
//     and must match exactly — recorded as match=1 series;
//   - SSE push throughput: events delivered per second across 1/4/16
//     concurrent /subscribe streams at each fleet size;
//   - ingest overhead: ObserveBatch throughput while maintaining the index
//     at every horizon bucket vs an identical store without it.
func fleetQuery(o Options) []Figure {
	o = o.withDefaults()
	sizes := fleetSizes
	subs := fleetSubscribers
	idxQueries, scanQueries, checks := 300, 20, 10
	pushWindow := 600 * time.Millisecond
	if o.Quick {
		sizes = []int{200, 1000}
		subs = []int{1, 4}
		idxQueries, scanQueries, checks = 60, 6, 4
		pushWindow = 250 * time.Millisecond
	}

	idxRange := Series{Name: "indexed"}
	scanRange := Series{Name: "brute-force"}
	idxKNN := Series{Name: "indexed"}
	scanKNN := Series{Name: "brute-force"}
	speedupRange := Series{Name: "range speedup"}
	speedupKNN := Series{Name: "knn speedup"}
	matchRange := Series{Name: "range match"}
	matchKNN := Series{Name: "knn match"}
	obsIdx := Series{Name: "with index"}
	obsPlain := Series{Name: "without index"}
	var pushSeries []Series

	for _, n := range sizes {
		rng := rand.New(rand.NewSource(o.Seed*1000 + int64(n)))

		st, obsPerSec := buildFleet(n, true, rng)
		plain, plainPerSec := buildFleet(n, false, rand.New(rand.NewSource(o.Seed*1000+int64(n))))
		// Close the plain fleet before timing queries: a second 100k-object
		// store kept alive would distort the latency numbers via GC pressure.
		plain.Close()
		obsIdx.X = append(obsIdx.X, float64(n))
		obsIdx.Y = append(obsIdx.Y, obsPerSec)
		obsPlain.X = append(obsPlain.X, float64(n))
		obsPlain.Y = append(obsPlain.Y, plainPerSec)

		rl, sl := timeRange(st, rng, idxQueries, scanQueries)
		kl, skl := timeKNN(st, rng, idxQueries, scanQueries)
		x := float64(n)
		idxRange.X, idxRange.Y = append(idxRange.X, x), append(idxRange.Y, rl)
		scanRange.X, scanRange.Y = append(scanRange.X, x), append(scanRange.Y, sl)
		idxKNN.X, idxKNN.Y = append(idxKNN.X, x), append(idxKNN.Y, kl)
		scanKNN.X, scanKNN.Y = append(scanKNN.X, x), append(scanKNN.Y, skl)
		speedupRange.X, speedupRange.Y = append(speedupRange.X, x), append(speedupRange.Y, sl/rl)
		speedupKNN.X, speedupKNN.Y = append(speedupKNN.X, x), append(speedupKNN.Y, skl/kl)

		rm, km := verifyIdentity(st, rng, checks)
		matchRange.X, matchRange.Y = append(matchRange.X, x), append(matchRange.Y, rm)
		matchKNN.X, matchKNN.Y = append(matchKNN.X, x), append(matchKNN.Y, km)

		push := Series{Name: fmt.Sprintf("%d objects", n)}
		for _, nsub := range subs {
			push.X = append(push.X, float64(nsub))
			push.Y = append(push.Y, pushThroughput(st, nsub, pushWindow))
		}
		pushSeries = append(pushSeries, push)

		st.Close()
	}

	return []Figure{
		{
			ID:     "fleet-range-latency",
			Title:  "Predictive Range Query Latency vs Fleet Size (indexed vs brute-force)",
			XLabel: "objects",
			YLabel: "µs/query",
			Series: []Series{idxRange, scanRange},
		},
		{
			ID:     "fleet-knn-latency",
			Title:  "Predictive kNN Query Latency vs Fleet Size (indexed vs brute-force)",
			XLabel: "objects",
			YLabel: "µs/query",
			Series: []Series{idxKNN, scanKNN},
		},
		{
			ID:     "fleet-speedup",
			Title:  "Index Speedup over Brute-Force Scan vs Fleet Size",
			XLabel: "objects",
			YLabel: "speedup (x)",
			Series: []Series{speedupRange, speedupKNN},
		},
		{
			ID:     "fleet-identity",
			Title:  "Indexed Answers Identical to Brute-Force Recomputation (1 = every sampled query matched)",
			XLabel: "objects",
			YLabel: "match",
			Series: []Series{matchRange, matchKNN},
		},
		{
			ID:     "fleet-subscribe-throughput",
			Title:  "SSE Push Throughput vs Subscribers (/subscribe, 20ms interval)",
			XLabel: "subscribers",
			YLabel: "events/s",
			Series: pushSeries,
		},
		{
			ID:     "fleet-observe-overhead",
			Title:  "Ingest Throughput With and Without Index Maintenance",
			XLabel: "objects",
			YLabel: "observes/s",
			Series: []Series{obsIdx, obsPlain},
		},
	}
}

// buildFleet populates a store with n objects — fleetTrained of them with
// enough history for a real model, the rest short random walks — and
// returns it with the observe throughput measured during the build, the
// trained objects' first trains included (each runs inside the observe
// that completes its fourth period). An indexed store has every horizon
// bucket read before the first observe, so the build maintains all of
// them.
func buildFleet(n int, indexed bool, rng *rand.Rand) (*store.Store, float64) {
	opts := store.Options{
		Config:          hpm.Config{Period: 60},
		MinTrainPeriods: 4,
		EvalDisabled:    true,
	}
	if indexed {
		opts.FleetIndex = &spatial.Config{CellSize: 200}
	}
	st, err := store.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: fleetquery store: %v", err))
	}

	for _, h := range st.FleetHorizons() {
		if _, err := st.QueryNearest(hpm.Pt(0, 0), 1, h); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery bucket read: %v", err))
		}
	}
	trained := fleetTrained
	if trained > n/4 {
		trained = n / 4
	}
	observes := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("obj-%06d", i)
		var pts []hpm.Point
		if i < trained {
			spec := datagen.DefaultSpec(datagen.Car, int64(i+1))
			spec.Period = 60
			spec.SubTrajectories = 5
			pts = datagen.Generate(spec).Points()
		} else {
			pts = randomWalk(rng, 8)
		}
		if err := st.ObserveBatch(id, pts); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery observe: %v", err))
		}
		observes++
	}
	return st, float64(observes) / time.Since(start).Seconds()
}

// randomWalk scatters a short track inside the data extent.
func randomWalk(rng *rand.Rand, n int) []hpm.Point {
	ext := datagen.Extent
	p := hpm.Pt(
		ext.Min.X+rng.Float64()*ext.Width(),
		ext.Min.Y+rng.Float64()*ext.Height(),
	)
	pts := make([]hpm.Point, n)
	for i := range pts {
		pts[i] = p
		p = ext.Clamp(hpm.Pt(p.X+rng.NormFloat64()*5, p.Y+rng.NormFloat64()*5))
	}
	return pts
}

// queryRect draws a rect covering 1% of the extent area (10% per side),
// the "which objects will be near here" window a dispatcher would ask
// for. Indexed range cost is dominated by materializing the matching
// objects, so selectivity — not fleet size — sets its latency.
func queryRect(rng *rand.Rand) hpm.Rect {
	ext := datagen.Extent
	w, h := ext.Width()*0.10, ext.Height()*0.10
	x := ext.Min.X + rng.Float64()*(ext.Width()-w)
	y := ext.Min.Y + rng.Float64()*(ext.Height()-h)
	return hpm.Rect{Min: hpm.Pt(x, y), Max: hpm.Pt(x+w, y+h)}
}

var fleetHorizons = []int{5, 20, 100}

// timeRange returns the mean indexed and brute-force range latencies (µs).
func timeRange(st *store.Store, rng *rand.Rand, idxN, scanN int) (idxUS, scanUS float64) {
	rects := make([]hpm.Rect, idxN)
	for i := range rects {
		rects[i] = queryRect(rng)
	}
	start := time.Now()
	for i, r := range rects {
		if _, err := st.QueryRange(r, fleetHorizons[i%len(fleetHorizons)]); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery range: %v", err))
		}
	}
	idxUS = float64(time.Since(start).Microseconds()) / float64(idxN)
	start = time.Now()
	for i := 0; i < scanN; i++ {
		if _, err := st.ScanRange(rects[i], fleetHorizons[i%len(fleetHorizons)]); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery scan: %v", err))
		}
	}
	scanUS = float64(time.Since(start).Microseconds()) / float64(scanN)
	return idxUS, scanUS
}

// timeKNN returns the mean indexed and brute-force kNN latencies (µs).
func timeKNN(st *store.Store, rng *rand.Rand, idxN, scanN int) (idxUS, scanUS float64) {
	pts := make([]hpm.Point, idxN)
	ext := datagen.Extent
	for i := range pts {
		pts[i] = hpm.Pt(ext.Min.X+rng.Float64()*ext.Width(), ext.Min.Y+rng.Float64()*ext.Height())
	}
	start := time.Now()
	for i, p := range pts {
		if _, err := st.QueryNearest(p, 10, fleetHorizons[i%len(fleetHorizons)]); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery knn: %v", err))
		}
	}
	idxUS = float64(time.Since(start).Microseconds()) / float64(idxN)
	start = time.Now()
	for i := 0; i < scanN; i++ {
		if _, err := st.ScanNearest(pts[i], 10, fleetHorizons[i%len(fleetHorizons)]); err != nil {
			panic(fmt.Sprintf("experiments: fleetquery knn scan: %v", err))
		}
	}
	scanUS = float64(time.Since(start).Microseconds()) / float64(scanN)
	return idxUS, scanUS
}

// verifyIdentity compares indexed and brute-force answers on sampled
// queries; any mismatch aborts the experiment (the artifact must never
// record a speedup bought with wrong answers). Returns (1, 1) on success.
func verifyIdentity(st *store.Store, rng *rand.Rand, checks int) (rangeMatch, knnMatch float64) {
	ext := datagen.Extent
	for i := 0; i < checks; i++ {
		h := fleetHorizons[i%len(fleetHorizons)]
		r := queryRect(rng)
		got, err1 := st.QueryRange(r, h)
		want, err2 := st.ScanRange(r, h)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			panic(fmt.Sprintf("experiments: fleetquery identity: range answers diverge at %v h=%d (%v, %v)", r, h, err1, err2))
		}
		p := hpm.Pt(ext.Min.X+rng.Float64()*ext.Width(), ext.Min.Y+rng.Float64()*ext.Height())
		gotK, err1 := st.QueryNearest(p, 10, h)
		wantK, err2 := st.ScanNearest(p, 10, h)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(gotK, wantK) {
			panic(fmt.Sprintf("experiments: fleetquery identity: knn answers diverge at %v h=%d (%v, %v)", p, h, err1, err2))
		}
	}
	return 1, 1
}

// pushThroughput opens nsub concurrent SSE subscriptions against the
// serving stack and counts events delivered within the window.
func pushThroughput(st *store.Store, nsub int, window time.Duration) float64 {
	srv := httptest.NewServer(serve.Handler(st))
	defer srv.Close()
	url := srv.URL + "/subscribe?minx=0&miny=0&maxx=2000&maxy=2000&horizon=20&interval_ms=20"

	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	var events atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nsub; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
			if err != nil {
				panic(fmt.Sprintf("experiments: fleetquery subscribe: %v", err))
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				return // window expired before connect
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 1<<20), 1<<24)
			for sc.Scan() {
				if strings.HasPrefix(sc.Text(), "event: ") {
					events.Add(1)
				}
			}
		}()
	}
	start := time.Now()
	wg.Wait()
	return float64(events.Load()) / time.Since(start).Seconds()
}
