package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hpm"
	"hpm/store"
)

// parseProm parses a Prometheus 0.0.4 text exposition into a map keyed by
// the full series (name plus label set, exactly as rendered). Comment and
// blank lines are skipped; any other malformed line fails the test, which
// is the "parseable" acceptance check.
func parseProm(t *testing.T, r io.Reader) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("metrics line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		if _, dup := out[line[:i]]; dup {
			t.Fatalf("duplicate series %q", line[:i])
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// sumPrefix sums every series whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func TestMetricsEndToEnd(t *testing.T) {
	srv, st := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)
	if err := st.ObserveBatch("bus-7", tr.Slice(0, 4*period)); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	// Serve one near and one distant prediction, then deliver the period
	// that contains their ground truth: the eval counters must move.
	getJSON(t, srv.URL+"/objects/bus-7/predict?horizon=5", http.StatusOK)
	getJSON(t, srv.URL+"/objects/bus-7/predict?horizon=60", http.StatusOK)
	resp, err := http.Post(srv.URL+"/objects/bus-7/observe", "application/json",
		observeBody(t, tr.Slice(4*period, 5*period)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d", resp.StatusCode)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	m := parseProm(t, mresp.Body)

	if m["hpm_objects"] != 1 || m["hpm_objects_trained"] != 1 {
		t.Errorf("fleet gauges: objects=%v trained=%v", m["hpm_objects"], m["hpm_objects_trained"])
	}
	// The fifth period went in through an Extend, which seeded the miner.
	if m["hpm_extends_total"] != 1 || m["hpm_miners"] != 1 || m["hpm_miner_itemsets"] < 1 {
		t.Errorf("miner gauges: extends=%v miners=%v itemsets=%v",
			m["hpm_extends_total"], m["hpm_miners"], m["hpm_miner_itemsets"])
	}
	if m["hpm_eval_recorded_total"] != 2 || m["hpm_eval_scored_total"] != 2 {
		t.Errorf("eval totals: recorded=%v scored=%v", m["hpm_eval_recorded_total"], m["hpm_eval_scored_total"])
	}
	if got := sumPrefix(m, "hpm_eval_attempts_total{"); got != 2 {
		t.Errorf("summed attempt cells = %v, want 2", got)
	}
	if got := sumPrefix(m, "hpm_queries_total{"); got < 2 {
		t.Errorf("summed query paths = %v, want >= 2", got)
	}

	// The full horizon × path matrix is always exported, zeros included,
	// so scrapes get a stable series set.
	cfg := st.EvalConfig()
	for _, path := range []string{"forward", "backward", "fallback"} {
		for i := 0; i < cfg.NumBuckets(); i++ {
			key := fmt.Sprintf("hpm_eval_attempts_total{horizon_le=%q,path=%q}", cfg.BucketLabel(i), path)
			if _, ok := m[key]; !ok {
				t.Fatalf("missing matrix cell %s", key)
			}
		}
	}

	// A specific bucket that must have moved: the horizon-5 prediction
	// landed in the first bucket under whichever path answered it.
	near := fmt.Sprintf("hpm_eval_attempts_total{horizon_le=%q,", cfg.BucketLabel(cfg.Bucket(5)))
	if got := sumPrefix(m, near); got != 1 {
		t.Errorf("near bucket attempts = %v, want 1", got)
	}

	// A fleet opened from a directory says how many models it loaded.
	dir := t.TempDir()
	planted, err := store.Open(dir, store.Options{Config: hpm.Config{Period: period}, MinTrainPeriods: 3, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := planted.ObserveBatch("bus-7", tr.Slice(0, 4*period)); err != nil {
		t.Fatal(err)
	}
	if err := planted.Close(); err != nil { // drains the train, checkpoints
		t.Fatal(err)
	}
	reopened, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	srv2 := httptest.NewServer(Handler(reopened))
	defer srv2.Close()
	m2resp, err := http.Get(srv2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m2resp.Body.Close()
	m2 := parseProm(t, m2resp.Body)
	if models, ok := m2["hpm_open_models"]; !ok || models != 1 {
		t.Errorf("hpm_open_models = %v (present %v), want 1", models, ok)
	}
}

func TestFleetStatsEndpoint(t *testing.T) {
	srv, st := testServer(t)
	if err := st.Observe("solo", hpm.Pt(1, 2)); err != nil {
		t.Fatal(err)
	}
	body := getJSON(t, srv.URL+"/stats", http.StatusOK)
	if body["objects"].(float64) != 1 {
		t.Errorf("objects = %v", body["objects"])
	}
	for _, key := range []string{"trained", "pendingTrains", "trainFailures", "driftRetrains", "WAL", "Queries", "Eval"} {
		if _, ok := body[key]; !ok {
			t.Errorf("fleet stats missing %q: %v", key, body)
		}
	}
	ev := body["Eval"].(map[string]any)
	if _, ok := ev["cells"]; !ok {
		t.Errorf("fleet eval summary missing cells: %v", ev)
	}

}

func TestObjectEvalEndpoint(t *testing.T) {
	srv, st := testServer(t)
	getJSON(t, srv.URL+"/objects/ghost/eval", http.StatusNotFound)

	if err := st.Observe("bus", hpm.Pt(1, 2)); err != nil {
		t.Fatal(err)
	}
	body := getJSON(t, srv.URL+"/objects/bus/eval", http.StatusOK)
	if body["recorded"].(float64) != 0 {
		t.Errorf("fresh object recorded = %v", body["recorded"])
	}
	if len(body["cells"].([]any)) == 0 {
		t.Error("eval summary has no cells")
	}
}

// TestBulkObserveErrorPaths covers the fleet-ingest endpoint's 400s: the
// handler must reject malformed JSON and half-formed observations without
// creating objects.
func TestBulkObserveErrorPaths(t *testing.T) {
	srv, st := testServer(t)
	for _, body := range []string{
		"",
		"not json",
		`{"id": "a"}`, // object, not array
		`[]`,
		`[{"points": [[1, 2]]}]`,                // missing id
		`[{"id": "a", "points": []}]`,           // no points
		`[{"id": "a", "nope": 1}]`,              // unknown field
		`[{"id": "a", "points": [[1e999, 2]]}]`, // overflows float64
		`[{"id": "a", "points": [[1, 2]]}`,      // truncated
	} {
		resp, err := http.Post(srv.URL+"/observe", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if len(st.Objects()) != 0 {
		t.Errorf("rejected bulk observes created objects: %v", st.Objects())
	}
}

// TestPredictBatchErrorPaths covers the batch-predict endpoint's error
// statuses: malformed bodies 400, unknown objects 404.
func TestPredictBatchErrorPaths(t *testing.T) {
	srv, st := testServer(t)
	post := func(id, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/objects/"+id+"/predict", "application/json",
			bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, body := range []string{
		"",
		"not json",
		`{"tqs": "abc"}`,
		`{"nope": [1]}`,
		`{}`,                            // neither tqs nor horizons
		`{"tqs": [1], "horizons": [2]}`, // both
	} {
		if got := post("ghost", body); got != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, got)
		}
	}

	// Non-positive horizons need a known object to get past Now: 400.
	if err := st.Observe("bus", hpm.Pt(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := post("bus", `{"horizons": [0]}`); got != http.StatusBadRequest {
		t.Errorf("horizon 0: status %d, want 400", got)
	}

	// Well-formed body, unknown object: 404 via both addressing modes.
	if got := post("ghost", `{"tqs": [10]}`); got != http.StatusNotFound {
		t.Errorf("unknown object tqs: status %d, want 404", got)
	}
	if got := post("ghost", `{"horizons": [10]}`); got != http.StatusNotFound {
		t.Errorf("unknown object horizons: status %d, want 404", got)
	}
	if got := st.Objects(); len(got) != 1 || got[0] != "bus" {
		t.Errorf("predict created objects: %v", got)
	}
}
