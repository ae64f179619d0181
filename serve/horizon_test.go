package serve

import (
	"fmt"
	"net/http"
	"testing"
	"time"

	"hpm"
)

// TestPredictFarHorizonRefused: a query time more than maxHorizon ticks past
// the object's current time is a 400 on every endpoint that takes one —
// relative horizon, absolute tq, batch horizons, batch tqs, trajectory from —
// and comes back at once. The object never repeats itself, so no pattern and
// no chain stands between a query and the motion function, whose recurrence
// such a request used to iterate once per tick of horizon under the object's
// read lock, with the object's ingest queued behind it.
func TestPredictFarHorizonRefused(t *testing.T) {
	srv, st := testServer(t)
	pts := make([]hpm.Point, 4*period)
	for i := range pts {
		pts[i] = hpm.Pt(10+3*float64(i), 20+2*float64(i))
	}
	if err := st.ObserveBatch("drifter", pts); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	now, _ := st.Now("drifter")
	base := srv.URL + "/objects/drifter"

	// Within the bound the motion function answers, the furthest time included.
	body := getJSON(t, fmt.Sprintf("%s/predict?horizon=%d", base, maxHorizon), http.StatusOK)
	if p := body["predictions"].([]any); len(p) != 1 || p[0].(map[string]any)["source"] != "motion" {
		t.Fatalf("horizon %d: %v, want one motion prediction", maxHorizon, body)
	}
	getJSON(t, fmt.Sprintf("%s/predict?tq=%d", base, now+maxHorizon), http.StatusOK)

	const far = 2_000_000_000
	refused := func(name string, do func()) {
		t.Helper()
		start := time.Now()
		do()
		if el := time.Since(start); el > 100*time.Millisecond {
			t.Errorf("%s: refused after %v, want < 100ms", name, el)
		}
	}
	refused("horizon", func() { getJSON(t, fmt.Sprintf("%s/predict?horizon=%d", base, far), http.StatusBadRequest) })
	refused("horizon+1", func() { getJSON(t, fmt.Sprintf("%s/predict?horizon=%d", base, maxHorizon+1), http.StatusBadRequest) })
	refused("tq", func() { getJSON(t, fmt.Sprintf("%s/predict?tq=%d", base, now+far), http.StatusBadRequest) })
	refused("tq+1", func() { getJSON(t, fmt.Sprintf("%s/predict?tq=%d", base, now+maxHorizon+1), http.StatusBadRequest) })
	refused("batch horizons", func() {
		postJSON(t, base+"/predict", map[string]any{"horizons": []int{5, far, 10}}, http.StatusBadRequest)
	})
	refused("batch tqs", func() {
		postJSON(t, base+"/predict", map[string]any{"tqs": []int{now + 5, now + far}}, http.StatusBadRequest)
	})
	refused("trajectory", func() {
		getJSON(t, fmt.Sprintf("%s/trajectory?from=%d&to=%d", base, now+far, now+far+10), http.StatusBadRequest)
	})
	getJSON(t, srv.URL+"/objects/nobody/predict?tq=5", http.StatusNotFound)

	// The object still takes its ingest.
	resp, err := http.Post(base+"/observe", "application/json", observeBody(t, []hpm.Point{hpm.Pt(1, 2)}))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe after the refusals: status %d", resp.StatusCode)
	}
	if after, _ := st.Now("drifter"); after != now+1 {
		t.Errorf("current time %d after one more point, want %d", after, now+1)
	}
}
