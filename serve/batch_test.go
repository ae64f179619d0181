package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"hpm"
)

// postJSON posts a JSON body and decodes the JSON response.
func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", &buf)
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

func TestPredictBatchEndpoint(t *testing.T) {
	srv, st := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 21)
	spec.Period = period
	spec.SubTrajectories = 4
	if err := st.ObserveBatch("bike", hpm.GenerateDataset(spec).Points()); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	now, _ := st.Now("bike")

	// Absolute times.
	body := postJSON(t, srv.URL+"/objects/bike/predict",
		map[string]any{"tqs": []int{now + 5, now + 80}, "k": 2}, http.StatusOK)
	results, ok := body["results"].([]any)
	if !ok || len(results) != 2 {
		t.Fatalf("results = %v", body["results"])
	}
	first := results[0].(map[string]any)
	if int(first["tq"].(float64)) != now+5 {
		t.Errorf("first tq = %v, want %d", first["tq"], now+5)
	}
	if preds := first["predictions"].([]any); len(preds) == 0 {
		t.Error("no predictions for the near time")
	}

	// Horizons resolve against the object's current time.
	body = postJSON(t, srv.URL+"/objects/bike/predict",
		map[string]any{"horizons": []int{5, 80}}, http.StatusOK)
	results = body["results"].([]any)
	if got := int(results[1].(map[string]any)["tq"].(float64)); got != now+80 {
		t.Errorf("horizon tq = %d, want %d", got, now+80)
	}

	// The batch answers must agree with the store's direct batch API.
	direct, err := st.PredictBatchContext(context.Background(), "bike", []int{now + 5, now + 80}, 1)
	if err != nil {
		t.Fatal(err)
	}
	gotX := results[0].(map[string]any)["predictions"].([]any)[0].(map[string]any)["x"].(float64)
	if gotX != direct[0][0].Location.X {
		t.Errorf("endpoint x = %v, direct x = %v", gotX, direct[0][0].Location.X)
	}
}

func TestPredictBatchEndpointValidation(t *testing.T) {
	srv, st := testServer(t)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 22)
	spec.Period = period
	spec.SubTrajectories = 4
	if err := st.ObserveBatch("bike", hpm.GenerateDataset(spec).Points()); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}

	url := srv.URL + "/objects/bike/predict"
	// Neither tqs nor horizons.
	postJSON(t, url, map[string]any{"k": 1}, http.StatusBadRequest)
	// Both tqs and horizons.
	postJSON(t, url, map[string]any{"tqs": []int{500}, "horizons": []int{5}}, http.StatusBadRequest)
	// Non-positive horizon.
	postJSON(t, url, map[string]any{"horizons": []int{0}}, http.StatusBadRequest)
	// Unknown object.
	postJSON(t, srv.URL+"/objects/ghost/predict", map[string]any{"tqs": []int{500}}, http.StatusNotFound)
	// Oversized batch.
	big := make([]int, 10001)
	now, _ := st.Now("bike")
	for i := range big {
		big[i] = now + 1 + i
	}
	postJSON(t, url, map[string]any{"tqs": big}, http.StatusBadRequest)
	// Untrained object: 409 like the GET endpoint.
	if err := st.ObserveBatch("fresh", []hpm.Point{hpm.Pt(0, 0)}); err != nil {
		t.Fatal(err)
	}
	postJSON(t, srv.URL+"/objects/fresh/predict", map[string]any{"tqs": []int{500}}, http.StatusConflict)
}
