package experiments

import (
	"fmt"

	"hpm"
	"hpm/internal/datagen"
	"hpm/store"
)

func init() {
	registerExtension("markov",
		"Three-way ensemble: pattern vs markov vs motion accuracy per horizon", markovEnsemble)
}

// markovEnsemble replays each dataset through a live store with the
// Markov next-region path enabled, in test-then-train order. Every sampled
// instant answers the horizon sweep three ways — the forced pattern
// dispatch, the forced markov chain and the forced motion fallback — and
// each answer is scored offline against the trajectory's known future.
// Only the second half of the streamed traffic is scored, so every path is
// judged on a model that has extended over the first half, as a
// long-running store's would have.
//
// The figures are the per-path accuracy matrix per dataset: hit rate and
// mean error by horizon.
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

// markovPaths are the scored routes, in figure order.
var markovPaths = []struct {
	name  string // series name
	route hpm.Path
}{
	{"pattern path", hpm.PathForward},
	{"markov path", hpm.PathMarkov},
	{"motion fallback", hpm.PathFallback},
}

func markovDataset(kind datagen.Kind, o Options) []Figure {
	sz := scale(o)
	horizons := evalHorizons(o)
	spec := datagen.DefaultSpec(kind, o.Seed)
	spec.Period = sz.period
	spec.SubTrajectories = sz.trainSubs + sz.querySubs

	tr := datagen.Generate(spec)
	st, err := store.New(store.Options{
		Config:          hpm.Config{Period: spec.Period}, // MarkovOrder 0: markov path on at default order
		MinTrainPeriods: sz.trainSubs,
		// Scored offline below; the store's own evaluator is not read.
		EvalDisabled: true,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: markov store: %v", err))
	}
	defer st.Close()

	id := kind.String()
	if err := st.ObserveBatch(id, tr.Slice(0, sz.trainSubs*spec.Period)); err != nil {
		panic(fmt.Sprintf("experiments: markov train: %v", err))
	}
	if s, err := st.Stats(id); err != nil || !s.Trained {
		panic(fmt.Sprintf("experiments: markov train: %+v, %v", s, err))
	}
	hitDist := st.EvalConfig().HitDistance

	cells := make([][]markovCell, len(markovPaths)) // [path][horizon index]
	for i := range cells {
		cells[i] = make([]markovCell, len(horizons))
	}
	stride := spec.Period / 10
	total := tr.Len()
	start := sz.trainSubs * spec.Period
	scoreFrom := start + (total-start)/2
	for base := start; base < total; base += stride {
		if base >= scoreFrom {
			now, err := st.Now(id)
			if err != nil {
				panic(fmt.Sprintf("experiments: markov now: %v", err))
			}
			for hi, h := range horizons {
				if now+h >= total {
					continue // truth would never arrive
				}
				truth := tr.At(now + h)
				for pi, p := range markovPaths {
					loc := tr.At(now) // nothing answered: charged the last known location
					if preds, err := st.PredictVia(id, p.route, now+h, 1); err == nil && len(preds) > 0 {
						loc = preds[0].Location
					}
					cells[pi][hi].add(loc.Dist(truth), hitDist)
				}
			}
		}
		end := base + stride
		if end > total {
			end = total
		}
		if err := st.ObserveBatch(id, tr.Slice(base, end)); err != nil {
			panic(fmt.Sprintf("experiments: markov observe: %v", err))
		}
	}

	series := func(metric func(*markovCell) float64) []Series {
		out := make([]Series, len(markovPaths))
		for pi, p := range markovPaths {
			out[pi].Name = p.name
			for hi, h := range horizons {
				out[pi].X = append(out[pi].X, float64(h))
				out[pi].Y = append(out[pi].Y, metric(&cells[pi][hi]))
			}
		}
		return out
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
	}
}
