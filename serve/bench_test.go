package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"hpm"
	"hpm/store"
)

// benchTrained is how many trained objects the predict benchmarks ask, one
// datagen kind after another at the harness fleet's shape: period 60, ten
// periods and a half each.
const benchTrained = 25

var benchKinds = []hpm.Dataset{hpm.DatasetBike, hpm.DatasetCow, hpm.DatasetCar, hpm.DatasetAirplane}

// benchTrack is object i's generated track, 11 periods long.
func benchTrack(i int) []hpm.Point {
	spec := hpm.DefaultDatasetSpec(benchKinds[i%len(benchKinds)], int64(i)+1)
	spec.Period = period
	spec.SubTrajectories = 11
	return hpm.GenerateDataset(spec).Points()
}

// appendPointsBody writes points as the load harness does: compact, each
// float in its shortest round-trip form.
func appendPointsBody(b []byte, pts []hpm.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, ']')
	}
	return append(b, ']')
}

// bulkBody is a bulk observe body: n objects, pts points each from their
// tracks starting at from.
func bulkBody(tracks [][]hpm.Point, from, pts int) []byte {
	b := []byte{'['}
	for i, tr := range tracks {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"id":"o%04d","points":`, i)
		b = appendPointsBody(b, tr[from:from+pts])
		b = append(b, '}')
	}
	return append(b, ']')
}

// serveBench runs one request per iteration through h: the request is
// built once and its body re-read each time, the recorder is fresh. before,
// when set, runs ahead of each request, inside the timing.
func serveBench(b *testing.B, h http.Handler, method string, target func(i int) string, body func(i int) []byte, before func(i int)) {
	b.Helper()
	b.ReportAllocs()
	reqs := make([]*http.Request, 0, 64)
	readers := make([]*bytes.Reader, 0, 64)
	for i := 0; i < cap(reqs); i++ {
		rd := bytes.NewReader(body(i))
		reqs = append(reqs, httptest.NewRequest(method, target(i), rd))
		readers = append(readers, rd)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(reqs)
		if before != nil {
			before(j)
		}
		readers[j].Seek(0, 0)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, reqs[j])
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: status %d body %s", method, reqs[j].URL, rec.Code, rec.Body)
		}
	}
}

// BenchmarkServe drives each hot endpoint in-process through its handler
// and an httptest recorder: body read and parse, the store's call, the
// answer written. It is the codec's own number beside the load harness's.
//
//   - predict: GET ?horizon=H&k=3 over the trained objects;
//   - predict_batch: eight horizons, k = 3, as the harness asks;
//
// each predict as memo=miss, which forgets the object's answers before
// every request so the model runs each time, and memo=hit, which asks
// again what the object's memo already holds;
//
//   - observe_one: one point to one object;
//   - observe_bulk_tick: a fleet tick, 100 objects × 1 point;
//   - observe_bulk_setup: a set-up request, 25 objects × 630 points.
//
// The predicts ask a store of 25 trained objects. The observes write to an
// untrained store (no object ever reaches its first train), so no train or
// Extend runs inside the loop; set-up's store is renewed, off the clock,
// every 32 requests to hold its tracks to the size it was measured at.
func BenchmarkServe(b *testing.B) {
	tracks := make([][]hpm.Point, 100)
	for i := range tracks {
		tracks[i] = benchTrack(i)
	}
	newStore := func(b *testing.B, minTrain int) *store.Store {
		st, err := store.New(store.Options{Config: hpm.Config{Period: period}, MinTrainPeriods: minTrain})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	}
	trained := newStore(b, 4)
	for i := 0; i < benchTrained; i++ {
		if err := trained.ObserveBatch(fmt.Sprintf("o%04d", i), tracks[i][:10*period+period/2]); err != nil {
			b.Fatal(err)
		}
	}
	if err := trained.Flush(); err != nil {
		b.Fatal(err)
	}
	horizons := []int{2, 5, 20, 60, 100}
	noBody := func(int) []byte { return nil }

	ids := make([]string, benchTrained)
	for i := range ids {
		ids[i] = fmt.Sprintf("o%04d", i)
	}
	for _, miss := range []bool{true, false} {
		memo := map[bool]string{true: "memo=miss", false: "memo=hit"}[miss]
		var forget func(i int)
		if miss {
			forget = func(i int) { trained.ForgetAnswers(ids[i%benchTrained]) }
		}
		b.Run("predict/"+memo, func(b *testing.B) {
			serveBench(b, Handler(trained), "GET", func(i int) string {
				return fmt.Sprintf("/objects/o%04d/predict?horizon=%d&k=3", i%benchTrained, horizons[i%len(horizons)])
			}, noBody, forget)
		})
		b.Run("predict_batch/"+memo, func(b *testing.B) {
			serveBench(b, Handler(trained), "POST", func(i int) string {
				return fmt.Sprintf("/objects/o%04d/predict", i%benchTrained)
			}, func(int) []byte { return []byte(`{"horizons":[2,5,10,20,40,60,80,100],"k":3}`) }, forget)
		})
	}
	b.Run("observe_one", func(b *testing.B) {
		serveBench(b, Handler(newStore(b, 1<<20)), "POST", func(i int) string {
			return fmt.Sprintf("/objects/o%04d/observe", i)
		}, func(i int) []byte {
			return append(appendPointsBody([]byte(`{"points":`), tracks[i][i:i+1]), '}')
		}, nil)
	})
	b.Run("observe_bulk_tick", func(b *testing.B) {
		serveBench(b, Handler(newStore(b, 1<<20)), "POST", func(int) string { return "/observe" }, func(i int) []byte {
			return bulkBody(tracks, i, 1)
		}, nil)
	})
	b.Run("observe_bulk_setup", func(b *testing.B) {
		body := bulkBody(tracks[:25], 0, 630)
		b.ReportAllocs()
		var st *store.Store
		var h http.Handler
		for i := 0; i < b.N; i++ {
			if i%32 == 0 {
				b.StopTimer()
				if st != nil {
					st.Close()
				}
				st = newStore(b, 1<<20)
				h = Handler(st)
				b.StartTimer()
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/observe", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("set-up observe: status %d body %s", rec.Code, rec.Body)
			}
		}
		b.ReportMetric(float64(len(body)), "body-bytes")
	})
}
