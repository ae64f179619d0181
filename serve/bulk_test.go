package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"hpm"
)

// postRaw posts a body verbatim — for wire forms json.Encoder cannot
// produce, like malformed JSON or out-of-range numbers.
func postRaw(t *testing.T, url, body string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBulkObserve(t *testing.T) {
	srv, st := testServer(t)
	body := []map[string]any{
		{"id": "bus-1", "points": [][2]float64{{1, 2}, {3, 4}}},
		{"id": "bus-2", "points": [][2]float64{{5, 6}}},
		{"id": "bus-1", "points": [][2]float64{{7, 8}}}, // repeated id merges in order
	}
	out := postJSON(t, srv.URL+"/observe", body, http.StatusOK)
	if out["objects"].(float64) != 2 || out["points"].(float64) != 4 {
		t.Fatalf("bulk observe response: %v", out)
	}
	for id, want := range map[string]int{"bus-1": 3, "bus-2": 1} {
		stats, err := st.Stats(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if stats.Points != want {
			t.Errorf("%s: %d points, want %d", id, stats.Points, want)
		}
	}
	// The repeated id's points landed in request order.
	now, _ := st.Now("bus-1")
	if now != 2 {
		t.Errorf("bus-1 now = %d, want 2", now)
	}
}

// bulkBadBodies are bulk observe bodies answered 400, by name; they seed
// FuzzFleetBody too.
var bulkBadBodies = map[string]string{
	"not json":    "nope",
	"empty array": "[]",
	"missing id":  `[{"points": [[1, 2]]}]`,
	"no points":   `[{"id": "x"}]`,
	// 1e999 overflows float64 at decode time; JSON itself cannot
	// carry NaN/Inf, so this is the closest non-finite wire form.
	"inf point":   `[{"id": "x", "points": [[1e999, 2]]}]`,
	"unknown key": `[{"id": "x", "points": [[1, 2]], "bogus": 1}]`,
}

func TestBulkObserveRejectsBadBodies(t *testing.T) {
	srv, st := testServer(t)
	for name, body := range bulkBadBodies {
		if out := postRaw(t, srv.URL+"/observe", body, http.StatusBadRequest); out["error"] == "" {
			t.Errorf("%s: no error in body: %v", name, out)
		}
	}
	if len(st.Objects()) != 0 {
		t.Errorf("rejected bulk observes created objects: %v", st.Objects())
	}
}

func TestBulkObserveTrains(t *testing.T) {
	srv, st := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = period
	spec.SubTrajectories = 3
	pts := hpm.GenerateDataset(spec).Points()
	pairs := make([][2]float64, len(pts))
	for i, p := range pts {
		pairs[i] = [2]float64{p.X, p.Y}
	}
	postJSON(t, srv.URL+"/observe", []map[string]any{
		{"id": "bike", "points": pairs},
	}, http.StatusOK)
	getFlush(t, srv.URL)
	stats, err := st.Stats("bike")
	if err != nil || !stats.Trained {
		t.Fatalf("bulk-ingested object not trained: %+v (err %v)", stats, err)
	}
}

// TestObserveRejectsMalformedPoints: a point that is not exactly two
// numbers, a key in another case or repeated, and text after the value are
// refused by both observe endpoints — 400, nothing stored — where they were
// once zero-filled, matched or ignored and stored.
func TestObserveRejectsMalformedPoints(t *testing.T) {
	srv, st := testServer(t)
	for _, body := range malformedPoints {
		for url, b := range map[string]string{
			"/objects/a/observe": body,
			"/observe":           asFleetBody(body),
		} {
			if out := postRaw(t, srv.URL+url, b, http.StatusBadRequest); out["error"] == "" {
				t.Errorf("%s %s: no error in body: %v", url, b, out)
			}
		}
	}
	if objs := st.Objects(); len(objs) != 0 {
		t.Errorf("refused observes stored points: objects %v", objs)
	}
}
