package experiments

import (
	"fmt"

	"hpm"
	"hpm/internal/datagen"
	"hpm/internal/evalq"
	"hpm/store"
)

func init() {
	register("markov",
		"Three-way ensemble: pattern vs markov vs motion accuracy per horizon, and measured adaptive routing vs the best single path", markovEnsemble)
}

// markovEnsemble replays each dataset through a live store with the
// Markov next-region path enabled and adaptive routing on, in
// test-then-train order. Every sampled instant answers the horizon sweep
// four ways — the forced pattern dispatch, the forced markov chain, the
// forced motion fallback (the three shadow calls that feed the routing
// measurements), and the adaptively routed Predict — and all four answers
// are scored offline against the trajectory's known future. The first
// half of the streamed traffic is a measurement warm-up: the shadows fill
// the accuracy matrix routing decides by, and nothing is scored into the
// figures. The second half is scored, so the routed column reflects
// routing decisions made on genuinely prior measurements, not hindsight.
//
// The figures are the ISSUE's acceptance artifact: the three-column
// accuracy matrix per dataset, plus routing against the best single path
// (the one fixed path with the lowest overall mean error on that
// dataset). Routing specializes per horizon bucket, so it wins wherever
// the per-bucket winner differs from the overall winner.
func markovEnsemble(o Options) []Figure {
	o = o.withDefaults()
	var figs []Figure
	for _, kind := range datasetsFor(o) {
		figs = append(figs, markovDataset(kind, o)...)
	}
	return figs
}

// markovCell accumulates one (path, horizon) cell of the offline score.
type markovCell struct {
	attempts int
	hits     int
	errSum   float64
}

func (c *markovCell) add(err, hitDist float64) {
	c.attempts++
	if err <= hitDist {
		c.hits++
	}
	c.errSum += err
}

func (c *markovCell) hitRate() float64 {
	if c.attempts == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.attempts)
}

func (c *markovCell) meanErr() float64 {
	if c.attempts == 0 {
		return 0
	}
	return c.errSum / float64(c.attempts)
}

// markovPaths are the scored columns, in figure order. The first three
// are the single paths; the last is the live routed answer.
var markovPaths = []string{"pattern", "markov", "fallback", "routed"}

func markovDataset(kind datagen.Kind, o Options) []Figure {
	sz := scale(o)
	horizons := evalHorizons(o)
	spec := datagen.DefaultSpec(kind, o.Seed)
	spec.Period = sz.period
	spec.SubTrajectories = sz.trainSubs + sz.querySubs

	tr := datagen.Generate(spec)
	st, err := store.New(store.Options{
		Config:              hpm.Config{Period: spec.Period}, // MarkovOrder 0: markov path on at default order
		MinTrainPeriods:     sz.trainSubs,
		SynchronousTraining: true,
		AdaptiveRouting:     true,
		AdaptiveMinSamples:  8,
		Eval: evalq.Config{
			// Four parked answers per horizon per instant, and the longest
			// horizon waits ~200 timestamps for truth; size the ring so no
			// measurement is evicted before it scores.
			RingSize: 8192,
			Buckets:  append([]int(nil), horizons...),
		},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: markov store: %v", err))
	}
	defer st.Close()

	id := kind.String()
	if err := st.ObserveBatch(id, tr.Slice(0, sz.trainSubs*spec.Period)); err != nil {
		panic(fmt.Sprintf("experiments: markov train: %v", err))
	}
	hitDist := st.EvalConfig().HitDistance

	cells := map[string]map[int]*markovCell{}
	for _, p := range markovPaths {
		cells[p] = map[int]*markovCell{}
		for _, h := range horizons {
			cells[p][h] = &markovCell{}
		}
	}
	score := func(path string, h int, preds []hpm.Prediction, perr error, truth hpm.Point, last hpm.Point) {
		loc := last // nothing answered: charged the last known location
		if perr == nil && len(preds) > 0 {
			loc = preds[0].Location
		}
		cells[path][h].add(loc.Dist(truth), hitDist)
	}

	stride := spec.Period / 10
	total := tr.Len()
	start := sz.trainSubs * spec.Period
	warmEnd := start + (total-start)/2
	for base := start; base < total; base += stride {
		now, err := st.Now(id)
		if err != nil {
			panic(fmt.Sprintf("experiments: markov now: %v", err))
		}
		warm := base < warmEnd
		for _, h := range horizons {
			if now+h >= total {
				continue // truth would never arrive
			}
			truth, last := tr.At(now+h), tr.At(now)
			pat, perr := st.PredictVia(id, hpm.PathForward, now+h, 1)
			mk, merr := st.PredictVia(id, hpm.PathMarkov, now+h, 1)
			fb, ferr := st.PredictVia(id, hpm.PathFallback, now+h, 1)
			if warm {
				continue // measurement only: feed the matrix, score nothing
			}
			score("pattern", h, pat, perr, truth, last)
			score("markov", h, mk, merr, truth, last)
			score("fallback", h, fb, ferr, truth, last)
			routed, rerr := st.Predict(id, now+h, 1)
			score("routed", h, routed, rerr, truth, last)
		}
		end := base + stride
		if end > total {
			end = total
		}
		if err := st.ObserveBatch(id, tr.Slice(base, end)); err != nil {
			panic(fmt.Sprintf("experiments: markov observe: %v", err))
		}
	}

	names := map[string]string{
		"pattern":  "pattern path",
		"markov":   "markov path",
		"fallback": "motion fallback",
		"routed":   "adaptive routing",
	}
	series := func(metric func(*markovCell) float64) []Series {
		out := make([]Series, 0, len(markovPaths))
		for _, p := range markovPaths {
			s := Series{Name: names[p]}
			for _, h := range horizons {
				s.X = append(s.X, float64(h))
				s.Y = append(s.Y, metric(cells[p][h]))
			}
			out = append(out, s)
		}
		return out
	}

	// The best single path: the fixed path with the lowest overall mean
	// error across the scored traffic — what a deployment without routing
	// would have to pick once, in advance, for the whole workload.
	best := "pattern"
	bestErr := 0.0
	for i, p := range []string{"pattern", "markov", "fallback"} {
		var sum float64
		var n int
		for _, h := range horizons {
			sum += cells[p][h].errSum
			n += cells[p][h].attempts
		}
		if n == 0 {
			continue
		}
		if mean := sum / float64(n); i == 0 || mean < bestErr {
			best, bestErr = p, mean
		}
	}
	routing := Series{Name: "adaptive routing"}
	single := Series{Name: fmt.Sprintf("best single path (%s)", best)}
	for _, h := range horizons {
		routing.X = append(routing.X, float64(h))
		routing.Y = append(routing.Y, cells["routed"][h].meanErr())
		single.X = append(single.X, float64(h))
		single.Y = append(single.Y, cells[best][h].meanErr())
	}

	suffix := fmt.Sprintf(" (hit distance %g, warm-up then scored) — %s", hitDist, kind)
	return []Figure{
		{
			ID:     "markov-hit-" + kind.String(),
			Title:  "Ensemble Hit Rate vs Horizon" + suffix,
			XLabel: "prediction horizon",
			YLabel: "hit rate",
			Series: series((*markovCell).hitRate),
		},
		{
			ID:     "markov-err-" + kind.String(),
			Title:  "Ensemble Mean Error vs Horizon" + suffix,
			XLabel: "prediction horizon",
			YLabel: "mean error distance",
			Series: series((*markovCell).meanErr),
		},
		{
			ID:     "markov-routing-" + kind.String(),
			Title:  "Adaptive Routing vs Best Single Path" + suffix,
			XLabel: "prediction horizon",
			YLabel: "mean error distance",
			Series: []Series{routing, single},
		},
	}
}
