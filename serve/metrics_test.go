package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	if m["hpm_extends_total"] != 1 || m["hpm_miners"] != 1 || m["hpm_miner_itemsets"] < 1 ||
		m["hpm_miner_bytes"] < m["hpm_miner_itemsets"] {
		t.Errorf("miner gauges: extends=%v miners=%v itemsets=%v bytes=%v",
			m["hpm_extends_total"], m["hpm_miners"], m["hpm_miner_itemsets"], m["hpm_miner_bytes"])
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

	// A repeated predict between two writes is answered from the object's
	// memo: the reuse counter moves and the model's query counters do not.
	scrapeURL := func(url string) map[string]float64 {
		t.Helper()
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return parseProm(t, resp.Body)
	}
	scrape := func() map[string]float64 { return scrapeURL(srv.URL) }
	getJSON(t, srv.URL+"/objects/bus-7/predict?horizon=5", http.StatusOK)
	before := scrape()
	getJSON(t, srv.URL+"/objects/bus-7/predict?horizon=5", http.StatusOK)
	after := scrape()
	if d := after["hpm_answers_reused_total"] - before["hpm_answers_reused_total"]; d != 1 {
		t.Errorf("a repeated predict moved hpm_answers_reused_total by %v, want 1", d)
	}
	if d := sumPrefix(after, "hpm_queries_total{") - sumPrefix(before, "hpm_queries_total{"); d != 0 {
		t.Errorf("a repeated predict moved hpm_queries_total by %v, want 0", d)
	}

	// A fleet index builds a horizon bucket on the first query that reads
	// it, and only then maintains it.
	fsrv, fst := fleetServer(t, store.Options{MinTrainPeriods: 3})
	if err := fst.ObserveBatch("bus-7", tr.Slice(0, 4*period)); err != nil {
		t.Fatal(err)
	}
	if err := fst.Flush(); err != nil {
		t.Fatal(err)
	}
	index := func(m map[string]float64) [3]float64 {
		return [3]float64{m["hpm_index_bucket_builds_total"], m["hpm_index_live_buckets"], m["hpm_index_entries"]}
	}
	if got := index(scrapeURL(fsrv.URL)); got != [3]float64{0, 0, 0} {
		t.Errorf("before any fleet query: builds, live buckets, entries = %v, want zeros", got)
	}
	rangeURL := fsrv.URL + "/query/range?minx=-1e6&miny=-1e6&maxx=1e6&maxy=1e6&horizon=30"
	getJSON(t, rangeURL, http.StatusOK)
	fm := scrapeURL(fsrv.URL)
	if got := index(fm); got != [3]float64{1, 1, 1} {
		t.Errorf("after the first range at h=30: builds, live buckets, entries = %v, want 1, 1, 1", got)
	}
	if _, ok := fm["hpm_index_bucket_build_seconds_total"]; !ok {
		t.Error("/metrics has no hpm_index_bucket_build_seconds_total")
	}
	getJSON(t, rangeURL, http.StatusOK)
	if got := index(scrapeURL(fsrv.URL)); got[0] != 1 {
		t.Errorf("a second range at h=30 moved builds to %v, want 1", got[0])
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

// TestMetricsTreeBytesAfterLoad: a fleet opened from a directory reports,
// as hpm_tree_bytes, what its loaded models' pattern trees hold: the sum of
// the models' own counts, at least a key word and a table row per pattern.
func TestMetricsTreeBytesAfterLoad(t *testing.T) {
	dir := t.TempDir()
	planted, err := store.Open(dir, store.Options{Config: hpm.Config{Period: period}, MinTrainPeriods: 3, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"bus-1", "bus-2", "bus-3"}
	for i, id := range ids {
		spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(i+1))
		spec.Period = period
		spec.SubTrajectories = 4
		if err := planted.ObserveBatch(id, hpm.GenerateDataset(spec).Slice(0, 4*period)); err != nil {
			t.Fatal(err)
		}
	}
	if err := planted.Close(); err != nil { // checkpoints
		t.Fatal(err)
	}
	loaded, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	want, patterns := 0, 0
	for _, id := range ids {
		p, err := loaded.Predictor(id)
		if err != nil || p == nil {
			t.Fatalf("%s: no model after the load (%v)", id, err)
		}
		want += p.Model().TreeBytes()
		patterns += p.NumPatterns()
	}
	srv := httptest.NewServer(Handler(loaded))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := parseProm(t, resp.Body)
	if got, ok := m["hpm_tree_bytes"]; !ok || got != float64(want) || patterns == 0 || want < patterns*(8+4) {
		t.Errorf("hpm_tree_bytes = %v (present %v), the models hold %d bytes over %d patterns", got, ok, want, patterns)
	}
}

func TestFleetStatsEndpoint(t *testing.T) {
	srv, st := testServer(t)
	if err := st.ObserveBatch("solo", []hpm.Point{hpm.Pt(1, 2)}); err != nil {
		t.Fatal(err)
	}
	body := getJSON(t, srv.URL+"/stats", http.StatusOK)
	if body["objects"].(float64) != 1 {
		t.Errorf("objects = %v", body["objects"])
	}
	for _, key := range []string{"trained", "trainFailures", "WAL", "Queries", "Eval"} {
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

	if err := st.ObserveBatch("bus", []hpm.Point{hpm.Pt(1, 2)}); err != nil {
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

// bulkErrorBodies are the malformed bulk observe bodies of
// TestBulkObserveErrorPaths; they seed FuzzFleetBody too.
var bulkErrorBodies = []string{
	"",
	"not json",
	`{"id": "a"}`, // object, not array
	`[]`,
	`[{"points": [[1, 2]]}]`,                // missing id
	`[{"id": "a", "points": []}]`,           // no points
	`[{"id": "a", "nope": 1}]`,              // unknown field
	`[{"id": "a", "points": [[1e999, 2]]}]`, // overflows float64
	`[{"id": "a", "points": [[1, 2]]}`,      // truncated
}

// TestBulkObserveErrorPaths covers the fleet-ingest endpoint's 400s: the
// handler must reject malformed JSON and half-formed observations without
// creating objects.
func TestBulkObserveErrorPaths(t *testing.T) {
	srv, st := testServer(t)
	for _, body := range bulkErrorBodies {
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
	if err := st.ObserveBatch("bus", []hpm.Point{hpm.Pt(1, 1)}); err != nil {
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

// TestMetricsCountSeedsAfterRestart: a store killed with a WAL tail that
// carries a trained object over a period boundary seeds that object's miner
// inside the Extend its replay runs, and /metrics counts the seeding and its
// time beside the extend's.
func TestMetricsCountSeedsAfterRestart(t *testing.T) {
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 5
	tr := hpm.GenerateDataset(spec)
	dir := t.TempDir()
	live, err := store.Open(dir, store.Options{Config: hpm.Config{Period: period}, MinTrainPeriods: 3, WALNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if err := live.ObserveBatch("bus-7", tr.Slice(0, 3*period+10)); err != nil { // trains at three periods
		t.Fatal(err)
	}
	if err := live.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := live.ObserveBatch("bus-7", tr.Slice(3*period+10, 4*period+10)); err != nil { // the tail: over a boundary
		t.Fatal(err)
	}
	// A kill: the directory as it stands, snapshot and WAL tail, without
	// the checkpoint a Close writes.
	crashed := t.TempDir()
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	recovered, err := store.Open(crashed, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	srv := httptest.NewServer(Handler(recovered))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	m := parseProm(t, resp.Body)
	if m["hpm_open_replay_extends"] != 1 || m["hpm_extends_total"] != 1 {
		t.Fatalf("replay ran %v extends (%v in all), want the tail's one", m["hpm_open_replay_extends"], m["hpm_extends_total"])
	}
	seconds, ok := m["hpm_miner_seed_seconds_total"]
	if m["hpm_miner_seeds_total"] != 1 || !ok || seconds <= 0 || seconds > m["hpm_extend_duration_seconds_total"] {
		t.Errorf("seeds %v taking %v s (present %v), want 1 taking a part of the extend's %v s",
			m["hpm_miner_seeds_total"], seconds, ok, m["hpm_extend_duration_seconds_total"])
	}
}

func TestMetricsCountRankedListBuilds(t *testing.T) {
	st, err := store.New(store.Options{Config: hpm.Config{Period: period}, MinTrainPeriods: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv := httptest.NewServer(Handler(st))
	defer srv.Close()
	scrape := func() (tree, members float64) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		m := parseProm(t, resp.Body)
		tree, ok1 := m[`hpm_ranked_list_builds_total{from="tree"}`]
		members, ok2 := m[`hpm_ranked_list_builds_total{from="members"}`]
		if !ok1 || !ok2 {
			t.Fatal("hpm_ranked_list_builds_total is missing a series")
		}
		return tree, members
	}
	ids := []string{"bus-1", "bus-2"}
	tracks := make([][]hpm.Point, len(ids))
	for i := range ids {
		spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, int64(i+1))
		spec.Period = period
		spec.SubTrajectories = 10
		tracks[i] = hpm.GenerateDataset(spec).Points()
	}
	// Every distant horizon of one period, and a k that keeps no threshold,
	// so BQP reads every offset that holds a pattern.
	var horizons []int
	for h := period; h < 2*period; h++ {
		horizons = append(horizons, h)
	}
	read := func() {
		t.Helper()
		for _, id := range ids {
			if _, _, err := st.PredictBatchAheadContext(context.Background(), id, horizons, 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, id := range ids { // trains at four periods, extends to eight
		if err := st.ObserveBatch(id, tracks[i][:8*period+10]); err != nil {
			t.Fatal(err)
		}
	}
	read()
	tree, members := scrape()
	if tree == 0 || members != 0 {
		t.Fatalf("after the first reads: %v lists built from the tree, %v re-ranked; want some and none", tree, members)
	}
	extends := st.FleetStats().Extends
	for i, id := range ids { // over a period boundary: one Extend each
		if err := st.ObserveBatch(id, tracks[i][8*period+10:9*period+10]); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.FleetStats().Extends - extends; n != uint64(len(ids)) {
		t.Fatalf("%d extends over the boundary, want %d", n, len(ids))
	}
	read()
	tree2, members2 := scrape()
	if members2 == 0 || tree2 < tree {
		t.Errorf("after the Extends: %v lists built from the tree (%v before), %v re-ranked; want re-ranks", tree2, tree, members2)
	}
	t.Logf("built from the tree %v, then %v; re-ranked from members %v", tree, tree2, members2)
}
