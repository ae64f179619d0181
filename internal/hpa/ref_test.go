package hpa

import (
	"fmt"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// refPredictVia is the reference the engine's one answer path is held to:
// the Hybrid Prediction Algorithm for a single query time, written out on
// its own. The route picks a procedure, the pattern dispatch tries FQP or
// BQP by distance and then the chain, and the motion function answers what
// is left from one fit and one Predict. It counts in e's query stats as
// the engine does, so two engines built alike must agree on answers and
// counters alike.
func refPredictVia(e *Engine, route Path, q Query) ([]Prediction, error) {
	tc, err := currentTime(q.Recent, q.Tq)
	if err != nil {
		return nil, err
	}
	switch route {
	case PathFallback:
		return refMotionFallback(e, q)
	case PathMarkov:
		if mp, ok := askChain(e, q.Recent, q.Tq); ok {
			e.stats.markov.Add(1)
			return []Prediction{mp}, nil
		}
		return refMotionFallback(e, q)
	}
	sc := new(queryScratch)
	visited := e.encodeRecentInto(nil, q.Recent)
	var preds []Prediction
	path := &e.stats.forward
	if e.IsDistant(tc, q.Tq) {
		preds, path = e.backwardQuery(sc, visited, tc, q.Tq, max(q.K, 1)), &e.stats.backward
	} else {
		preds = e.forwardQuery(sc, visited, q.Tq, max(q.K, 1))
	}
	if len(preds) == 0 {
		mp, ok := askChain(e, q.Recent, q.Tq)
		if !ok {
			return refMotionFallback(e, q)
		}
		preds, path = []Prediction{mp}, &e.stats.markov
	}
	path.Add(1)
	return preds, nil
}

// refMotionFallback answers q from the motion function: a degenerate window
// answers with the last known location, no motion function leaves q
// unanswered.
func refMotionFallback(e *Engine, q Query) ([]Prediction, error) {
	if e.cfg.NewMotion == nil {
		e.stats.unanswered.Add(1)
		return nil, nil
	}
	loc := q.Recent[len(q.Recent)-1].Loc
	if fn, err := e.fitMotion(q.Recent); err == nil {
		if loc, err = fn.Predict(q.Tq); err != nil {
			e.stats.unanswered.Add(1)
			return nil, fmt.Errorf("hpa: motion fallback: %w", err)
		}
	}
	e.stats.fallback.Add(1)
	return []Prediction{motionPrediction(loc)}, nil
}

// askChain asks e's chain, when it has one, for one query time: the hook
// takes a batch, and this is a batch of one.
func askChain(e *Engine, recent []trajectory.TimedPoint, tq int) (Prediction, bool) {
	var out [1]Prediction
	if e.cfg.Markov != nil {
		e.cfg.Markov(recent, []int{tq}, out[:])
	}
	return out[0], out[0] != Prediction{}
}

// perTime lifts a per-time stand-in for the chain into the engine's batch
// hook: it asks answer once for each time of the batch.
func perTime(answer func(recent []trajectory.TimedPoint, tq int) (Prediction, bool)) func([]trajectory.TimedPoint, []int, []Prediction) {
	return func(recent []trajectory.TimedPoint, tqs []int, out []Prediction) {
		for i, tq := range tqs {
			if p, ok := answer(recent, tq); ok {
				out[i] = p
			}
		}
	}
}

// stubChain is a deterministic stand-in for the region chain: it answers
// two query times in three, at a point that names the time, and declines
// the third, so both the chain's answer and its fall-through are reached.
func stubChain(recent []trajectory.TimedPoint, tq int) (Prediction, bool) {
	if tq%3 == 0 {
		return Prediction{}, false
	}
	last := recent[len(recent)-1].Loc
	return Prediction{Location: geom.Pt(last.X+float64(tq), last.Y), PatternRef: -1,
		Source: SourceMarkov, Path: PathMarkov, ConsequenceOffset: -1}, true
}

// TestPredictViaMatchesReference: on engines mined from all four datasets,
// every route, near and distant times (past one period too) and k of 1, 3
// and 10 answer exactly as the reference procedure does and move the query
// counters by the same amounts. Each pair of engines is built alike and
// queried in the same order, so fit caches and ranked lists age alike.
// Windows far from every region, and a one-point window the motion function
// cannot fit, reach the fallback; engines without a chain, and without a
// motion function, cover the fall-throughs that are left.
func TestPredictViaMatchesReference(t *testing.T) {
	const period = 60
	rmf := func() motion.Function { return motion.NewRMF(motion.RMFConfig{}) }
	variants := []struct {
		name   string
		motion func() motion.Function
		chain  func([]trajectory.TimedPoint, []int, []Prediction)
	}{
		{"rmf+chain", rmf, perTime(stubChain)},
		{"rmf", rmf, nil},
		{"chain", nil, perTime(stubChain)},
		{"bare", nil, nil},
	}
	for _, kind := range datagen.Kinds {
		tr, rt, patterns := datasetFixture(t, kind)
		rules := pattern.TableOf(patterns)
		for _, v := range variants {
			t.Run(kind.String()+"/"+v.name, func(t *testing.T) {
				cfg := Config{Period: period, PenalizePremise: true, NewMotion: v.motion, Markov: v.chain}
				engines := [2]*Engine{}
				for i := range engines {
					e, err := NewEngine(rt, rules, cfg, tpt.Options{}, nil)
					if err != nil {
						t.Fatal(err)
					}
					engines[i] = e
				}
				got, ref := engines[0], engines[1]
				var windows [][]trajectory.TimedPoint
				for tc := 20 * period; tc < 24*period; tc += 5 {
					recent, err := tr.Recent(tc, 10)
					if err != nil {
						t.Fatal(err)
					}
					windows = append(windows, recent)
				}
				// A window far from every region, and one of a single point.
				tc := windows[0][len(windows[0])-1].T
				var far []trajectory.TimedPoint
				for i := range 10 {
					far = append(far, trajectory.TimedPoint{T: tc - 9 + i, Loc: geom.Pt(9e6+float64(10*i), 9e6+float64(i*i))})
				}
				windows = append(windows, far, far[9:])
				for _, recent := range windows {
					tc := recent[len(recent)-1].T
					for _, h := range []int{1, 2, 7, 30, 59, 60, 61, 95, 150, 301} {
						for _, k := range []int{1, 3, 10} {
							for _, route := range Paths() {
								q := Query{Recent: recent, Tq: tc + h, K: k}
								want, werr := refPredictVia(ref, route, q)
								preds, err := got.PredictVia(route, q)
								if (err != nil) != (werr != nil) || !samePredictions(preds, want) {
									t.Fatalf("%v tc=%d h=%d k=%d: got %+v, %v\nwant %+v, %v", route, tc, h, k, preds, err, want, werr)
								}
								if g, w := got.Stats(), ref.Stats(); g != w {
									t.Fatalf("%v tc=%d h=%d k=%d: stats %+v, want %+v", route, tc, h, k, g, w)
								}
							}
						}
					}
				}
				s := got.Stats()
				t.Logf("%+v", s)
				if s.Queries == 0 || s.Forward+s.Backward == 0 {
					t.Fatalf("no pattern answers: %+v", s)
				}
				if v.motion != nil && s.Fallback == 0 || v.chain != nil && s.Markov == 0 || v.motion == nil && s.Unanswered == 0 {
					t.Fatalf("a path went unexercised: %+v", s)
				}
			})
		}
	}
}

// TestPredictViaRefusesPastTimes: a query time at or before the window's
// end is refused down every route, as the reference refuses it.
func TestPredictViaRefusesPastTimes(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{{T: 0, Loc: centers["home"]}, {T: 1, Loc: centers["city"]}}
	for _, route := range Paths() {
		for _, tq := range []int{0, 1} {
			q := Query{Recent: recent, Tq: tq}
			if _, err := eng.PredictVia(route, q); err == nil {
				t.Errorf("%v tq=%d accepted", route, tq)
			}
			if _, err := refPredictVia(eng, route, q); err == nil {
				t.Errorf("reference %v tq=%d accepted", route, tq)
			}
		}
		if _, err := eng.PredictVia(route, Query{Tq: 5}); err == nil {
			t.Errorf("%v with no recent movements accepted", route)
		}
	}
	if s := eng.Stats(); s.Queries != 0 {
		t.Errorf("refused queries counted: %+v", s)
	}
}
