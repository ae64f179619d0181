package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"

	"hpm"
	"hpm/internal/spatial"
	"hpm/serve"
	"hpm/store"
)

// serverOptions mirrors, as store.Options, the flags startServer hands to
// hpmserve; everything else is the default on both sides.
func serverOptions() store.Options {
	return store.Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: minTrain,
		FleetIndex:      &spatial.Config{CellSize: indexCell},
	}
}

// coldSample is how many untrained objects the reference holds beside the
// trained sample, so range answers are checked on both kinds.
const coldSample = 200

// reference is an in-process store fed the same points as the server, for
// a sample of the fleet. Models are per object, so the sample's answers
// must equal the server's exactly; holding the whole fleet would double
// every run's training cost for no stronger a check.
type reference struct {
	st      *store.Store
	handler http.Handler
	trained []int // sampled indices into fleet.trained
	ids     map[string]bool
}

func newReference(f *fleet, seed int64, sc scale) (*reference, error) {
	st, err := store.New(serverOptions())
	if err != nil {
		return nil, err
	}
	ref := &reference{st: st, handler: serve.Handler(st), ids: map[string]bool{}}
	r := rand.New(rand.NewSource(seed*31 + 307))
	load := func(o *object) error {
		ref.ids[o.id] = true
		return st.ObserveBatch(o.id, o.track[:o.cut])
	}
	for _, i := range r.Perm(len(f.trained))[:min(sc.VerifyObjects, len(f.trained))] {
		ref.trained = append(ref.trained, i)
		if err := load(&f.trained[i]); err != nil {
			return nil, err
		}
	}
	for _, i := range r.Perm(len(f.cold))[:min(coldSample, len(f.cold))] {
		if err := load(&f.cold[i]); err != nil {
			return nil, err
		}
	}
	return ref, st.Flush()
}

// apply feeds the reference every point the list carried for its sample.
// An object's points all travel on one connection, so walking the list
// connection by connection keeps each object's order.
func (ref *reference) apply(list opList) error {
	for _, conn := range list {
		for _, block := range conn {
			for i := range block {
				for _, ob := range block[i].obs {
					if ref.ids[ob.id] {
						if err := ref.st.ObserveBatch(ob.id, ob.points); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// answer runs a request through the reference's own HTTP handler, so both
// sides pass through one JSON encoding.
func (ref *reference) answer(f *fleet, o *op) (int, []byte) {
	method, target, body := o.target(f)
	rec := httptest.NewRecorder()
	ref.handler.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// rangeResponse is a /query/range reply.
type rangeResponse struct {
	Horizon int `json:"horizon"`
	Results []struct {
		ID      string  `json:"id"`
		X       float64 `json:"x"`
		Y       float64 `json:"y"`
		Path    string  `json:"path"`
		Horizon int     `json:"horizon"`
	} `json:"results"`
}

// verify compares a sample of requests, sent to the server after the
// measured phase, with the reference: predicts byte for byte after the
// JSON round trip, range queries against the brute-force ScanRange
// restricted to the sampled objects.
func (h *harness) verify(seed int64, list opList, res *result) error {
	ref, err := newReference(h.f, seed, h.sc)
	if err != nil {
		return err
	}
	defer ref.st.Close()
	if err := ref.apply(list); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed*31 + 409))
	failed := 0
	var firstErr error
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for i := 0; i < h.sc.VerifyRequests; i++ {
		var o op
		switch {
		case i%5 == 4:
			o = rangeOp(r)
			// A rectangle around a sampled object's latest point, so the
			// answer is rarely empty.
			t := &h.f.trained[ref.trained[r.Intn(len(ref.trained))]]
			c := t.track[t.cut]
			o.rect = hpm.Rect{Min: hpm.Pt(c.X-1500, c.Y-1500), Max: hpm.Pt(c.X+1500, c.Y+1500)}
		default:
			o = predictOp(r, h.f, i%5 == 3)
			o.obj = ref.trained[r.Intn(len(ref.trained))]
		}
		o.encode(h.f)
		status, body, err := h.conns[0].do(o.req)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		if status != 200 {
			fail(fmt.Errorf("verify %s: status %d body %.200s", opKindNames[o.kind], status, body))
			continue
		}
		if o.kind != opRange {
			wantStatus, want := ref.answer(h.f, &o)
			if wantStatus != 200 || !bytes.Equal(body, want) {
				fail(fmt.Errorf("verify %s %s: server %.300s reference(%d) %.300s",
					opKindNames[o.kind], h.f.trained[o.obj].id, body, wantStatus, want))
			}
			continue
		}
		var got rangeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			fail(fmt.Errorf("verify range: %w", err))
			continue
		}
		want, err := ref.st.ScanRange(o.rect, o.horizons[0])
		if err != nil {
			return err
		}
		if err := sameRange(ref.ids, got, want); err != nil {
			fail(err)
		}
	}
	res.count(h.sc.VerifyRequests, failed, firstErr)
	return nil
}

// sameRange checks the server's answer, restricted to the sampled ids,
// against the reference's brute-force scan; both are sorted by id.
func sameRange(ids map[string]bool, got rangeResponse, want []spatial.Result) error {
	j := 0
	for _, g := range got.Results {
		if !ids[g.ID] {
			continue
		}
		if j >= len(want) {
			return fmt.Errorf("verify range: server reports %s, the scan does not", g.ID)
		}
		w := want[j]
		j++
		if g.ID != w.ID || g.X != w.Pos.X || g.Y != w.Pos.Y || g.Path != w.Path || g.Horizon != w.Horizon {
			return fmt.Errorf("verify range: server %+v, scan %+v", g, w)
		}
	}
	if j != len(want) {
		return fmt.Errorf("verify range: the scan reports %s, the server does not", want[j].ID)
	}
	return nil
}
