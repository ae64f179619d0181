package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"hpm"
	"hpm/store"
)

const period = 60

func testServer(t *testing.T) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.New(store.Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(st))
	t.Cleanup(srv.Close)
	return srv, st
}

func observeBody(t *testing.T, pts []hpm.Point) *bytes.Buffer {
	t.Helper()
	pairs := make([][2]float64, len(pts))
	for i, p := range pts {
		pairs[i] = [2]float64{p.X, p.Y}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"points": pairs}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// getFlush calls POST /flush, the no-op kept for older clients.
func getFlush(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Post(base+"/flush", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /flush: status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestObserveReply pins the single observe's reply to exactly two fields
// — the object's current time and whether it is trained — in each state the
// object passes through: untrained, trained by the very observe that
// completes its third period, and trained.
func TestObserveReply(t *testing.T) {
	srv, _ := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 4
	pts := hpm.GenerateDataset(spec).Points()
	observe := func(pts []hpm.Point, now int, trained bool) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/objects/bus-1/observe", "application/json", observeBody(t, pts))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			t.Fatal(err)
		}
		want := map[string]any{"now": float64(now), "trained": trained}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("observe reply %v, want %v", got, want)
		}
	}
	observe(pts[:2*period], 2*period-1, false)        // below MinTrainPeriods
	observe(pts[2*period:3*period], 3*period-1, true) // the third period trains
	observe(pts[3*period:3*period+1], 3*period, true)
}

func TestObserveAndPredictEndToEnd(t *testing.T) {
	srv, _ := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 5
	tr := hpm.GenerateDataset(spec)

	resp, err := http.Post(srv.URL+"/objects/bus-7/observe", "application/json",
		observeBody(t, tr.Points()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d", resp.StatusCode)
	}
	var ob map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&ob); err != nil {
		t.Fatal(err)
	}
	now := int(ob["now"].(float64))
	if now != tr.Len()-1 {
		t.Fatalf("now = %d, want %d", now, tr.Len()-1)
	}

	// Flush is a no-op kept for older clients: the observe trained the
	// model before it answered.
	flush := getFlush(t, srv.URL)
	if flush["flushed"] != true {
		t.Fatalf("flush = %v", flush)
	}

	// List.
	list := getJSON(t, srv.URL+"/objects", http.StatusOK)
	objs := list["objects"].([]any)
	if len(objs) != 1 || objs[0] != "bus-7" {
		t.Fatalf("objects = %v", objs)
	}

	// Stats.
	stats := getJSON(t, srv.URL+"/objects/bus-7/stats", http.StatusOK)
	if stats["Trained"] != true || stats["Patterns"].(float64) == 0 {
		t.Fatalf("stats = %v", stats)
	}

	// Predict by horizon.
	pred := getJSON(t, fmt.Sprintf("%s/objects/bus-7/predict?horizon=20&k=2", srv.URL), http.StatusOK)
	preds := pred["predictions"].([]any)
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	first := preds[0].(map[string]any)
	if first["source"] != "pattern" && first["source"] != "motion" && first["source"] != "markov" {
		t.Errorf("source = %v", first["source"])
	}
	if (first["source"] == "pattern" || first["source"] == "markov") && first["region"] == nil {
		t.Errorf("%v prediction missing region extent", first["source"])
	}

	// Predict by absolute tq.
	pred = getJSON(t, fmt.Sprintf("%s/objects/bus-7/predict?tq=%d", srv.URL, now+10), http.StatusOK)
	if int(pred["tq"].(float64)) != now+10 {
		t.Errorf("tq echo = %v", pred["tq"])
	}

	// Trajectory range.
	traj := getJSON(t, fmt.Sprintf("%s/objects/bus-7/trajectory?from=%d&to=%d", srv.URL, now+1, now+10), http.StatusOK)
	if got := len(traj["predictions"].([]any)); got != 10 {
		t.Errorf("trajectory returned %d points, want 10", got)
	}
}

func TestErrorStatuses(t *testing.T) {
	srv, st := testServer(t)

	// Unknown object: 404.
	getJSON(t, srv.URL+"/objects/ghost/predict?tq=10", http.StatusNotFound)
	getJSON(t, srv.URL+"/objects/ghost/stats", http.StatusNotFound)

	// Known but untrained: 409.
	if err := st.ObserveBatch("young", []hpm.Point{hpm.Pt(1, 1)}); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/objects/young/predict?tq=10", http.StatusConflict)

	// Missing parameters: 400.
	getJSON(t, srv.URL+"/objects/young/predict", http.StatusBadRequest)
	getJSON(t, srv.URL+"/objects/young/trajectory?from=9&to=3", http.StatusBadRequest)
	getJSON(t, srv.URL+"/objects/young/trajectory?from=1&to=999999", http.StatusBadRequest)

	// Bad observe bodies: 400.
	for _, body := range []string{"", "{}", `{"points": []}`, `{"nope": 1}`, "not json"} {
		resp, err := http.Post(srv.URL+"/objects/x/observe", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Query time in the past: 400.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 2)
	spec.Period = period
	spec.SubTrajectories = 4
	tr := hpm.GenerateDataset(spec)
	if err := st.ObserveBatch("bike", tr.Points()); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	getJSON(t, srv.URL+"/objects/bike/predict?tq=5", http.StatusBadRequest)
}

func TestObserveBodyLimit(t *testing.T) {
	srv, _ := testServer(t)
	huge := bytes.NewBuffer(make([]byte, 0, maxObserveBody+1024))
	huge.WriteString(`{"points": [`)
	for i := 0; huge.Len() < maxObserveBody+512; i++ {
		if i > 0 {
			huge.WriteString(",")
		}
		huge.WriteString("[1.0,2.0]")
	}
	huge.WriteString("]}")
	resp, err := http.Post(srv.URL+"/objects/big/observe", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", resp.StatusCode)
	}
}

func TestMalformedNumericParamsAre400(t *testing.T) {
	srv, st := testServer(t)
	if err := st.ObserveBatch("bus", []hpm.Point{hpm.Pt(1, 1)}); err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{
		"/objects/bus/predict?tq=abc",
		"/objects/bus/predict?tq=12&k=two",
		"/objects/bus/predict?horizon=1.5",
		"/objects/bus/trajectory?from=abc&to=10",
		"/objects/bus/trajectory?from=1&to=xyz",
	} {
		body := getJSON(t, srv.URL+url, http.StatusBadRequest)
		if body["error"] == nil || body["error"] == "" {
			t.Errorf("%s: no error message in %v", url, body)
		}
	}
}

func TestObserveRejectsNonFinitePoints(t *testing.T) {
	srv, st := testServer(t)
	for _, body := range []string{
		`{"points": [[1, 2], [NaN, 3]]}`, // invalid JSON too, still 400
		`{"points": [[1e999, 2]]}`,       // overflows to +Inf
		`{"points": [[1, -1e999]]}`,      // overflows to -Inf
	} {
		resp, err := http.Post(srv.URL+"/objects/bus/observe", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if len(st.Objects()) != 0 {
		t.Errorf("rejected observes created objects: %v", st.Objects())
	}
}

func TestHealthEndpoints(t *testing.T) {
	srv, st := testServer(t)
	health := getJSON(t, srv.URL+"/healthz", http.StatusOK)
	if health["ok"] != true {
		t.Fatalf("healthz = %v", health)
	}

	ready := getJSON(t, srv.URL+"/readyz", http.StatusOK)
	if ready["ready"] != true {
		t.Fatalf("readyz = %v", ready)
	}
	h := ready["health"].(map[string]any)
	if h["closed"] != false || h["durable"] != false { // testServer is in-memory
		t.Fatalf("health body = %v", h)
	}
	if _, ok := h["trainFailures"]; !ok {
		t.Fatalf("health body missing train-failure summary: %v", h)
	}

	// After Close readiness flips to 503 so a balancer drains the
	// instance during shutdown.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	notReady := getJSON(t, srv.URL+"/readyz", http.StatusServiceUnavailable)
	if notReady["ready"] != false {
		t.Fatalf("readyz after close = %v", notReady)
	}
	// Liveness is unaffected.
	getJSON(t, srv.URL+"/healthz", http.StatusOK)
}
