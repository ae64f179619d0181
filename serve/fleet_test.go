package serve

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpm"
	"hpm/internal/spatial"
	"hpm/store"
)

func fleetServer(t *testing.T, opts store.Options) (*httptest.Server, *store.Store) {
	t.Helper()
	if opts.Config.Period == 0 {
		opts.Config.Period = period
	}
	if opts.FleetIndex == nil {
		opts.FleetIndex = &spatial.Config{CellSize: 50}
	}
	st, err := store.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(st))
	t.Cleanup(srv.Close)
	return srv, st
}

// feedDataset pushes periods of a dataset trajectory through the store.
func feedDataset(t *testing.T, st *store.Store, id string, seed int64, periods int) {
	t.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
	spec.Period = st.Period()
	spec.SubTrajectories = periods
	if err := st.ObserveBatch(id, hpm.GenerateDataset(spec).Points()); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestQueryRangeEndpoint(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 3})
	feedDataset(t, st, "bike-1", 1, 5)
	feedDataset(t, st, "bike-2", 2, 5)

	body := getJSON(t, srv.URL+"/query/range?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10", http.StatusOK)
	results, ok := body["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("results = %v", body["results"])
	}
	first := results[0].(map[string]any)
	if first["id"] != "bike-1" {
		t.Errorf("first result %v, want bike-1 (sorted by id)", first["id"])
	}
	for _, key := range []string{"x", "y", "path", "horizon"} {
		if _, ok := first[key]; !ok {
			t.Errorf("result missing %q: %v", key, first)
		}
	}
	if body["horizon"].(float64) != 10 {
		t.Errorf("quantized horizon = %v, want 10", body["horizon"])
	}
}

func TestQueryKNNEndpoint(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 3})
	feedDataset(t, st, "a", 1, 5)
	feedDataset(t, st, "b", 2, 5)
	feedDataset(t, st, "c", 3, 5)

	body := getJSON(t, srv.URL+"/query/knn?x=0&y=0&k=2&horizon=15", http.StatusOK)
	results := body["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("k=2 returned %d results", len(results))
	}
	d0 := results[0].(map[string]any)["dist"].(float64)
	d1 := results[1].(map[string]any)["dist"].(float64)
	if d0 > d1 {
		t.Errorf("results not sorted by distance: %g > %g", d0, d1)
	}
	if body["horizon"].(float64) != 20 {
		t.Errorf("horizon 15 should quantize to bucket 20, got %v", body["horizon"])
	}
}

func TestFleetQueryMalformedParams(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 3})
	feedDataset(t, st, "a", 1, 2)
	cases := []string{
		"/query/range?miny=0&maxx=10&maxy=10&horizon=5",                     // missing minx
		"/query/range?minx=abc&miny=0&maxx=10&maxy=10&horizon=5",            // non-numeric
		"/query/range?minx=0&miny=0&maxx=10&maxy=10",                        // missing horizon
		"/query/range?minx=0&miny=0&maxx=10&maxy=10&horizon=0",              // non-positive horizon
		"/query/range?minx=0&miny=0&maxx=10&maxy=10&horizon=x",              // malformed horizon
		"/query/range?minx=50&miny=50&maxx=10&maxy=10&horizon=5",            // inverted rect
		"/query/knn?y=0&k=2&horizon=5",                                      // missing x
		"/query/knn?x=0&y=zz&k=2&horizon=5",                                 // non-numeric y
		"/query/knn?x=0&y=0&horizon=5",                                      // missing k
		"/query/knn?x=0&y=0&k=-1&horizon=5",                                 // negative k
		"/query/knn?x=0&y=0&k=2",                                            // missing horizon
		"/query/knn?x=NaN&y=0&k=2&horizon=5",                                // non-finite point
		"/subscribe?minx=0&miny=0&maxx=10&horizon=5",                        // missing maxy
		"/subscribe?minx=0&miny=0&maxx=10&maxy=10",                          // missing horizon
		"/subscribe?minx=0&miny=0&maxx=10&maxy=10&horizon=5&interval_ms=no", // bad interval
	}
	for _, c := range cases {
		resp, err := http.Get(srv.URL + c)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", c, resp.StatusCode)
		}
	}
}

func TestFleetQueryWithoutIndex(t *testing.T) {
	srv, _ := testServer(t) // no FleetIndex
	for _, c := range []string{
		"/query/range?minx=0&miny=0&maxx=10&maxy=10&horizon=5",
		"/query/knn?x=0&y=0&k=2&horizon=5",
		"/subscribe?minx=0&miny=0&maxx=10&maxy=10&horizon=5",
	} {
		resp, err := http.Get(srv.URL + c)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("GET %s: status %d, want 501", c, resp.StatusCode)
		}
	}
}

// sseEvent reads one "event:/data:" pair from an SSE stream.
func sseEvent(t *testing.T, br *bufio.Reader) (event, data string) {
	t.Helper()
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && data != "":
			return event, data
		}
	}
}

func TestSubscribeStreamsUpdates(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 1 << 20})
	feedDataset(t, st, "bike", 1, 2)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		srv.URL+"/subscribe?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10&interval_ms=20", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("subscribe status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	br := bufio.NewReader(resp.Body)
	// First event arrives immediately and already carries the object.
	ev, data := sseEvent(t, br)
	if ev != "update" {
		t.Errorf("event = %q, want update", ev)
	}
	if !strings.Contains(data, `"bike"`) {
		t.Errorf("first event missing object: %s", data)
	}
	if !strings.Contains(data, `"seq":0`) {
		t.Errorf("first event seq != 0: %s", data)
	}
	// A second object observed mid-stream shows up in a later push.
	feedDataset(t, st, "late", 2, 2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, data = sseEvent(t, br)
		if strings.Contains(data, `"late"`) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("late object never appeared in the stream")
		}
	}
	cancel() // disconnect; the handler must notice and return

	// Each event is flushed as it is written. At an hour's interval the
	// first one must still arrive at once, not when later events fill the
	// server's write buffer.
	slow, cancelSlow := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelSlow()
	req, err = http.NewRequestWithContext(slow, "GET",
		srv.URL+"/subscribe?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10&interval_ms=3600000", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("an hour-interval stream sent no headers within 5 s: %v", err)
	}
	defer resp.Body.Close()
	if ev, data := sseEvent(t, bufio.NewReader(resp.Body)); ev != "update" || !strings.Contains(data, `"late"`) {
		t.Errorf("first event of an hour-interval stream = %q %s", ev, data)
	}
}

// TestFleetHammerWithSubscriber races observes and first-train installs
// against indexed queries and one live SSE subscriber — the full stack
// under -race.
func TestFleetHammerWithSubscriber(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 2})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET",
		srv.URL+"/subscribe?minx=-100000&miny=-100000&maxx=100000&maxy=100000&horizon=10&interval_ms=20", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := 0
	var evMu sync.Mutex
	go func() {
		br := bufio.NewReader(resp.Body)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
			evMu.Lock()
			events++
			evMu.Unlock()
		}
	}()

	stop := make(chan struct{})
	time.AfterFunc(400*time.Millisecond, func() { close(stop) })
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := hpm.DefaultDatasetSpec(hpm.DatasetCar, int64(w))
			spec.Period = period
			spec.SubTrajectories = 8
			pts := hpm.GenerateDataset(spec).Points()
			id := fmt.Sprintf("car-%d", w)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				off := (i * 9) % (len(pts) - 9)
				if err := st.ObserveBatch(id, pts[off:off+9]); err != nil {
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
			client := srv.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var url string
				if i%2 == 0 {
					c := rng.Float64() * 500
					url = fmt.Sprintf("%s/query/range?minx=%g&miny=%g&maxx=%g&maxy=%g&horizon=10",
						srv.URL, c-200, c-200, c+200, c+200)
				} else {
					url = fmt.Sprintf("%s/query/knn?x=%g&y=%g&k=2&horizon=50",
						srv.URL, rng.Float64()*500, rng.Float64()*500)
				}
				r2, err := client.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				r2.Body.Close()
				if r2.StatusCode != http.StatusOK {
					t.Errorf("GET %s: status %d", url, r2.StatusCode)
					return
				}
			}
		}(q)
	}
	wg.Wait()
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	cancel()
	evMu.Lock()
	defer evMu.Unlock()
	if events == 0 {
		t.Error("subscriber saw no events during the hammer")
	}
}

func TestMetricsIncludesIndexAndFitCounters(t *testing.T) {
	srv, st := fleetServer(t, store.Options{MinTrainPeriods: 3})
	feedDataset(t, st, "bike", 1, 5)
	if _, err := st.QueryRangeContext(context.Background(), hpm.Rect{Min: hpm.Pt(-1e6, -1e6), Max: hpm.Pt(1e6, 1e6)}, 10); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		sb.WriteString(line)
		if err != nil {
			break
		}
	}
	body := sb.String()
	for _, want := range []string{
		"hpm_fallback_fits_total",
		"hpm_index_objects 1",
		"hpm_index_entries",
		"hpm_index_updates_total",
		"hpm_index_range_queries_total 1",
		"hpm_index_knn_queries_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
