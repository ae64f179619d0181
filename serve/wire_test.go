package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hpm"
	"hpm/internal/spatial"
	"hpm/store"
)

// The reference: the wire structs the handlers used to hand encoding/json,
// kept here as the oracle the codec is held to. The scanner must decode
// what encoding/json decodes into these, to the same values, or refuse it;
// the writers must emit what encoding/json emits for them, byte for byte.

// observeRequest is the single observe body.
type observeRequest struct {
	Points [][2]float64 `json:"points"`
}

// fleetObservation is one element of the bulk observe body.
type fleetObservation struct {
	ID     string       `json:"id"`
	Points [][2]float64 `json:"points"`
}

// predictBatchRequest is the batch predict body.
type predictBatchRequest struct {
	Tqs      []int `json:"tqs"`
	Horizons []int `json:"horizons"`
	K        int   `json:"k"`
}

// predictionJSON is the wire form of one prediction.
type predictionJSON struct {
	X          float64     `json:"x"`
	Y          float64     `json:"y"`
	Source     string      `json:"source"`
	Path       string      `json:"path"`
	Score      float64     `json:"score"`
	Confidence float64     `json:"confidence"`
	Region     *regionJSON `json:"region,omitempty"`
}

type regionJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func toJSON(p hpm.Prediction) predictionJSON {
	out := predictionJSON{
		X:          p.Location.X,
		Y:          p.Location.Y,
		Source:     p.Source.String(),
		Path:       p.Path.String(),
		Score:      p.Score,
		Confidence: p.Confidence,
	}
	if p.Source == hpm.SourcePattern || p.Source == hpm.SourceMarkov {
		out.Region = &regionJSON{
			MinX: p.Extent.Min.X, MinY: p.Extent.Min.Y,
			MaxX: p.Extent.Max.X, MaxY: p.Extent.Max.Y,
		}
	}
	return out
}

func toJSONs(preds []hpm.Prediction) []predictionJSON {
	out := make([]predictionJSON, len(preds))
	for i, p := range preds {
		out[i] = toJSON(p)
	}
	return out
}

// batchResultJSON pairs one query time with its ranked predictions.
type batchResultJSON struct {
	Tq          int              `json:"tq"`
	Predictions []predictionJSON `json:"predictions"`
}

// fleetResultJSON is the wire form of one fleet query answer.
type fleetResultJSON struct {
	ID      string  `json:"id"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Path    string  `json:"path"`
	Horizon int     `json:"horizon"`
	Dist    float64 `json:"dist,omitempty"`
}

func fleetResults(res []spatial.Result) []fleetResultJSON {
	out := make([]fleetResultJSON, len(res))
	for i, r := range res {
		out[i] = fleetResultJSON{ID: r.ID, X: r.Pos.X, Y: r.Pos.Y, Path: r.Path, Horizon: r.Horizon, Dist: r.Dist}
	}
	return out
}

// refDecode decodes a body as the handlers used to: one value, unknown
// fields refused, whatever follows it ignored.
func refDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// refEncode encodes a body as writeJSON does, trailing newline included.
func refEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func samePoint(p hpm.Point, xy [2]float64) bool {
	return math.Float64bits(p.X) == math.Float64bits(xy[0]) && math.Float64bits(p.Y) == math.Float64bits(xy[1])
}

// malformedPoints are single observe bodies encoding/json once accepted by
// reshaping them: a point cut short or run long, nulls zero-filled, a key
// in another case matched, text after the value ignored.
var malformedPoints = []string{
	`{"points": [[5]]}`,
	`{"points": [[1, 2, 3]]}`,
	`{"points": [[null, null]]}`,
	`{"points": [null]}`,
	`{"Points": [[1, 2]]}`,
	`{"points": [[1, 2]]} {"points": [[3, 4]]}`,
	`{"points": [[1, 2]], "points": [[3, 4]]}`,
}

// asFleetBody wraps a single observe body's members in a bulk observe
// body for object a.
func asFleetBody(body string) string {
	return `[{"id": "a", ` + body[1:] + `]`
}

// harnessTick is a bulk observe body as the load harness writes it: compact,
// shortest round-trip floats.
func harnessTick(objects int, seed int64) []byte {
	r := rand.New(rand.NewSource(seed))
	b := []byte{'['}
	for i := 0; i < objects; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"id":"t%04d","points":[[`, i)
		b = strconv.AppendFloat(b, r.Float64()*3000, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, r.Float64()*3000, 'g', -1, 64)
		b = append(b, "]]}"...)
	}
	return append(b, ']')
}

// FuzzObserveBody: whatever single observe body the scanner accepts,
// encoding/json accepts too, with the same points bit for bit.
func FuzzObserveBody(f *testing.F) {
	for _, body := range append([]string{"", "{}", `{"points": []}`, `{"nope": 1}`, "not json",
		`{"points": [[1e999, 2]]}`, `{"points": [[1, 2], [3.5e-7, -0]]}`, " {\"p\\u006fints\":\t[[0,1E+2]]}\n"},
		malformedPoints...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		pts, err := decodeObserve(body)
		if err != nil {
			return
		}
		var ref observeRequest
		if err := refDecode(body, &ref); err != nil {
			t.Fatalf("scanner accepts %q, encoding/json refuses it: %v", body, err)
		}
		if len(pts) != len(ref.Points) {
			t.Fatalf("%q: scanner reads %d points, encoding/json %d", body, len(pts), len(ref.Points))
		}
		for i, p := range pts {
			if !samePoint(p, ref.Points[i]) {
				t.Fatalf("%q: point %d is %v, encoding/json reads %v", body, i, p, ref.Points[i])
			}
		}
	})
}

// FuzzFleetBody: whatever bulk observe body the scanner accepts,
// encoding/json accepts too, with the same ids and the same points bit for
// bit.
func FuzzFleetBody(f *testing.F) {
	for _, body := range bulkBadBodies {
		f.Add([]byte(body))
	}
	for _, body := range bulkErrorBodies {
		f.Add([]byte(body))
	}
	for _, body := range malformedPoints {
		f.Add([]byte(asFleetBody(body)))
	}
	f.Add([]byte(`[{"id": "😀 <\u2028>", "points": [[1, 2]]}, {"points": [[3, 4]], "id": "b"}]`))
	f.Add([]byte(`[{"id": "\ud800", "points": [[1, 2]]}]`))
	f.Add([]byte("[{\"id\": \"\xff\", \"points\": [[1, 2]]}]"))
	f.Add(harnessTick(100, 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		obs, err := decodeFleet(body)
		if err != nil {
			return
		}
		var ref []fleetObservation
		if err := refDecode(body, &ref); err != nil {
			t.Fatalf("scanner accepts %q, encoding/json refuses it: %v", body, err)
		}
		if len(obs) != len(ref) {
			t.Fatalf("%q: scanner reads %d observations, encoding/json %d", body, len(obs), len(ref))
		}
		for i, ob := range obs {
			if ob.ID != ref[i].ID || len(ob.Points) != len(ref[i].Points) {
				t.Fatalf("%q: observation %d is %q with %d points, encoding/json reads %q with %d",
					body, i, ob.ID, len(ob.Points), ref[i].ID, len(ref[i].Points))
			}
			for j, p := range ob.Points {
				if !samePoint(p, ref[i].Points[j]) {
					t.Fatalf("%q: observation %d point %d is %v, encoding/json reads %v", body, i, j, p, ref[i].Points[j])
				}
			}
		}
	})
}

// edgeFloats are the values where encoding/json's float form turns: the
// 'e' cutoffs, the smallest subnormal, negative zero, the largest finite.
var edgeFloats = []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, 1e20, 1e21, 123456789e13,
	5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -math.MaxFloat64, 0.1, -2.5, 1 / 3.0}

// edgeIDs hold everything encoding/json escapes: HTML's <>&, U+2028 and
// U+2029, control characters, quotes and backslashes, invalid UTF-8.
var edgeIDs = []string{"bus-7", "<a>&b", "line\u2028para\u2029", "\x00\x01\x1f\b\f\n\r\t", `"q"\`, "\xff\xfe", "é日本\U0001F600", "a\xc3", ""}

func randFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return edgeFloats[r.Intn(len(edgeFloats))]
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(50)-25))
	case 2:
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	return float64(r.Intn(10000)) / 8
}

func randPredictions(r *rand.Rand) []hpm.Prediction {
	preds := make([]hpm.Prediction, r.Intn(4))
	for i := range preds {
		p := &preds[i]
		p.Location = hpm.Pt(randFloat(r), randFloat(r))
		p.Score, p.Confidence = randFloat(r), randFloat(r)
		p.Source = hpm.Source(r.Intn(3))
		p.Path = hpm.Path(r.Intn(int(hpm.PathMarkov) + 1))
		p.Extent = hpm.Rect{Min: hpm.Pt(randFloat(r), randFloat(r)), Max: hpm.Pt(randFloat(r), randFloat(r))}
	}
	return preds
}

func randResults(r *rand.Rand) []spatial.Result {
	res := make([]spatial.Result, r.Intn(4))
	for i := range res {
		res[i] = spatial.Result{ID: edgeIDs[r.Intn(len(edgeIDs))], Pos: hpm.Pt(randFloat(r), randFloat(r)),
			Path: edgeIDs[r.Intn(len(edgeIDs))], Horizon: r.Intn(200) - 10}
		if r.Intn(2) == 0 {
			res[i].Dist = randFloat(r)
		}
	}
	return res
}

// TestWritersMatchEncodingJSON: every writer emits the bytes encoding/json
// emits for the reference structs, over random predictions and fleet
// results.
func TestWritersMatchEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		preds := randPredictions(r)
		tq := r.Intn(1<<20) - 5
		a := newAnswer()
		a.raw(`{"predictions":`)
		a.predictions(preds)
		a.raw(`,"tq":`)
		a.int(tq)
		a.raw("}\n")
		want := refEncode(t, map[string]any{"tq": tq, "predictions": toJSONs(preds)})
		if !bytes.Equal(a.b, want) {
			t.Fatalf("predict answer\n got %s\nwant %s", a.b, want)
		}

		a.b = a.b[:0]
		batch := [][]hpm.Prediction{preds, randPredictions(r)}
		a.raw(`{"results":[`)
		results := make([]batchResultJSON, len(batch))
		for j, ps := range batch {
			if j > 0 {
				a.raw(",")
			}
			a.raw(`{"tq":`)
			a.int(tq + j)
			a.raw(`,"predictions":`)
			a.predictions(ps)
			a.raw("}")
			results[j] = batchResultJSON{Tq: tq + j, Predictions: toJSONs(ps)}
		}
		a.raw("]}\n")
		if want := refEncode(t, map[string]any{"results": results}); !bytes.Equal(a.b, want) {
			t.Fatalf("batch answer\n got %s\nwant %s", a.b, want)
		}

		a.b = a.b[:0]
		res := randResults(r)
		a.fleetAnswer(tq, res)
		a.raw("\n")
		if want := refEncode(t, map[string]any{"horizon": tq, "results": fleetResults(res)}); !bytes.Equal(a.b, want) {
			t.Fatalf("fleet answer\n got %s\nwant %s", a.b, want)
		}
		if a.bad != "" {
			t.Fatalf("finite values poisoned the answer: %s", a.bad)
		}
		a.free()
	}
}

// TestHandlersMatchEncodingJSON: what the handlers send for live answers —
// point, batch and trajectory predicts, both observe replies, a range and
// a kNN query, and an SSE event — is what encoding/json wrote for the
// reference structs.
func TestHandlersMatchEncodingJSON(t *testing.T) {
	st, err := store.New(store.Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
		FleetIndex:      &spatial.Config{CellSize: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h := Handler(st)
	serve := func(method, target, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewBufferString(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d body %s", method, target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	same := func(what string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s\n got %s\nwant %s", what, got, want)
		}
	}
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = period
	spec.SubTrajectories = 4
	pts := hpm.GenerateDataset(spec).Points()
	var body bytes.Buffer
	pairs := make([][2]float64, len(pts))
	for i, p := range pts {
		pairs[i] = [2]float64{p.X, p.Y}
	}
	json.NewEncoder(&body).Encode(observeRequest{Points: pairs[:2*period]})
	same("observe reply", serve("POST", "/objects/bike/observe", body.String()),
		refEncode(t, map[string]any{"now": 2*period - 1, "trained": false}))
	if err := st.ObserveBatch("bike", pts[2*period:]); err != nil {
		t.Fatal(err)
	}
	same("bulk observe reply", serve("POST", "/observe", `[{"id":"<c&1>","points":[[10,20]]},{"id":"c2","points":[[30,40],[50,60]]},{"id":"<c&1>","points":[[11,21]]}]`),
		refEncode(t, map[string]any{"objects": 2, "points": 4}))
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	now, _ := st.Now("bike")

	preds, err := st.PredictContext(context.Background(), "bike", now+7, 3)
	if err != nil {
		t.Fatal(err)
	}
	same("point predict", serve("GET", fmt.Sprintf("/objects/bike/predict?tq=%d&k=3", now+7), ""),
		refEncode(t, map[string]any{"tq": now + 7, "predictions": toJSONs(preds)}))

	tqs := []int{now + 2, now + 40, now + 100}
	batches, err := st.PredictBatchContext(context.Background(), "bike", tqs, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]batchResultJSON, len(batches))
	for i, ps := range batches {
		results[i] = batchResultJSON{Tq: tqs[i], Predictions: toJSONs(ps)}
	}
	same("batch predict", serve("POST", "/objects/bike/predict", fmt.Sprintf(`{"tqs": [%d, %d, %d], "k": 2}`, tqs[0], tqs[1], tqs[2])),
		refEncode(t, map[string]any{"results": results}))

	path, err := st.PredictRangeContext(context.Background(), "bike", now+1, now+30)
	if err != nil {
		t.Fatal(err)
	}
	same("trajectory", serve("GET", fmt.Sprintf("/objects/bike/trajectory?from=%d&to=%d", now+1, now+30), ""),
		refEncode(t, map[string]any{"from": now + 1, "to": now + 30, "predictions": toJSONs(path)}))

	rect := hpm.Rect{Min: hpm.Pt(math.Inf(-1), math.Inf(-1)), Max: hpm.Pt(math.Inf(1), math.Inf(1))}
	res, err := st.QueryRangeContext(context.Background(), rect, 10)
	if err != nil || len(res) == 0 {
		t.Fatalf("range query: %d results, err %v", len(res), err)
	}
	same("range query", serve("GET", "/query/range?minx=-Inf&miny=-Inf&maxx=Inf&maxy=Inf&horizon=10", ""),
		refEncode(t, map[string]any{"horizon": st.FleetBucketHorizon(10), "results": fleetResults(res)}))
	near, err := st.QueryNearestContext(context.Background(), hpm.Pt(0, 0), 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	same("knn query", serve("GET", "/query/knn?x=0&y=0&k=3&horizon=10", ""),
		refEncode(t, map[string]any{"horizon": st.FleetBucketHorizon(10), "results": fleetResults(near)}))

	// One SSE event: the recorder ends the stream behind it.
	ctx, cancel := context.WithCancel(context.Background())
	rec := &eventRecorder{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/subscribe?minx=-Inf&miny=-Inf&maxx=Inf&maxy=Inf&horizon=10", nil).WithContext(ctx))
	payload, err := json.Marshal(map[string]any{"seq": 0, "horizon": st.FleetBucketHorizon(10), "results": fleetResults(res)})
	if err != nil {
		t.Fatal(err)
	}
	same("SSE event", rec.Body.Bytes(), []byte(fmt.Sprintf("event: update\ndata: %s\n\n", payload)))
}

// eventRecorder records a stream and ends it after its first event.
type eventRecorder struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
}

func (r *eventRecorder) Write(b []byte) (int, error) {
	defer r.cancel()
	return r.ResponseRecorder.Write(b)
}

// TestAnswerRefusesNonFinite: a non-finite float never reaches the wire as
// JSON; the answer goes out as a 500 with an error body instead of a 200
// with an empty one.
func TestAnswerRefusesNonFinite(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		a := newAnswer()
		a.raw(`{"predictions":`)
		a.predictions([]hpm.Prediction{{Location: hpm.Pt(1, f)}})
		a.raw("}")
		rec := httptest.NewRecorder()
		a.send(rec)
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || rec.Code != http.StatusInternalServerError || body["error"] == "" {
			t.Errorf("%v: status %d body %q (%v), want a 500 with an error body", f, rec.Code, rec.Body, err)
		}
	}
}

// TestScannerAcceptsEncodedBodies: every body json.Marshal makes from
// valid observations decodes to them, and so does the harness's compact
// form.
func TestScannerAcceptsEncodedBodies(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	validIDs := []string{"bus-7", "<a>&b", "line\u2028para\u2029", "\x00\x01\x1f\b\f\n\r\t", `"q"\`, "é日本\U0001F600", "\ufffd"}
	for i := 0; i < 500; i++ {
		ref := make([]fleetObservation, 1+r.Intn(4))
		for j := range ref {
			ref[j].ID = validIDs[r.Intn(len(validIDs))]
			ref[j].Points = make([][2]float64, 1+r.Intn(4))
			for k := range ref[j].Points {
				ref[j].Points[k] = [2]float64{randFloat(r), randFloat(r)}
			}
		}
		body, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := decodeFleet(body)
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		for j, ob := range obs {
			if ob.ID != ref[j].ID || len(ob.Points) != len(ref[j].Points) {
				t.Fatalf("%s: observation %d read as %q with %d points", body, j, ob.ID, len(ob.Points))
			}
			for k, p := range ob.Points {
				if !samePoint(p, ref[j].Points[k]) {
					t.Fatalf("%s: point %d.%d read as %v", body, j, k, p)
				}
			}
		}
		single, _ := json.Marshal(observeRequest{Points: ref[0].Points})
		pts, err := decodeObserve(single)
		if err != nil || len(pts) != len(ref[0].Points) {
			t.Fatalf("%s: %d points, err %v", single, len(pts), err)
		}
	}
	tick := harnessTick(100, 3)
	obs, err := decodeFleet(tick)
	var ref []fleetObservation
	if err != nil || refDecode(tick, &ref) != nil || len(obs) != 100 {
		t.Fatalf("harness tick: %d observations, err %v", len(obs), err)
	}
	for i := range obs {
		if obs[i].ID != ref[i].ID || !samePoint(obs[i].Points[0], ref[i].Points[0]) {
			t.Fatalf("harness tick observation %d read as %+v, want %+v", i, obs[i], ref[i])
		}
	}
}

// TestBatchBodyMatchesEncodingJSON: a batch body the scanner accepts
// decodes as encoding/json decodes it; the int rules — no fraction, no
// exponent, within int64 — and null, case-folded and repeated keys are
// refused.
func TestBatchBodyMatchesEncodingJSON(t *testing.T) {
	for _, body := range []string{
		`{"horizons":[2,5,10,20,40,60,80,100],"k":3}`,
		` { "k" : -0 , "tqs" : [ 1 , -7 , 9223372036854775807 ] } `,
		`{"tqs": [], "horizons": [5]}`,
		`{"tqs": [5], "bogus": 1}`,
	} {
		tqs, horizons, k, err := decodeBatch([]byte(body))
		var ref predictBatchRequest
		refErr := refDecode([]byte(body), &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s: scanner err %v, encoding/json err %v", body, err, refErr)
		}
		if err == nil && (fmt.Sprint(tqs, horizons, k) != fmt.Sprint(ref.Tqs, ref.Horizons, ref.K) || len(tqs) != len(ref.Tqs)) {
			t.Fatalf("%s: scanner reads %v %v %d, encoding/json %v %v %d", body, tqs, horizons, k, ref.Tqs, ref.Horizons, ref.K)
		}
	}
	for _, body := range []string{
		`{"tqs": [1.0]}`, `{"tqs": [1e2]}`, `{"tqs": [9223372036854775808]}`, `{"k": 1.5, "tqs": [1]}`,
		`{"tqs": null, "horizons": [5]}`, `{"tqs": [null]}`, `{"Tqs": [1]}`, `{"tqs": [1], "tqs": [2]}`,
		`{"tqs": ["1"]}`, `{"tqs": [1]} x`,
	} {
		if _, _, _, err := decodeBatch([]byte(body)); err == nil {
			t.Errorf("%s: accepted", body)
		}
	}
}
