package experiments

import (
	"fmt"

	"hpm"
	"hpm/internal/datagen"
	"hpm/internal/evalq"
	"hpm/store"
)

func init() {
	register("eval",
		"Online prequential accuracy: hit rate and mean error vs horizon, hybrid pattern paths vs motion fallback, scored on live truth", evalOnline)
}

// evalHorizons is the horizon sweep; each horizon gets its own evaluator
// bucket so the online matrix maps one-to-one onto the figure's x-axis.
// Full mode mirrors the paper's prediction-length sweep (d = 60 splits it
// into near/forward and distant/backward); quick mode stays inside the
// shrunken period.
func evalHorizons(o Options) []int {
	if o.Quick {
		return []int{5, 10, 20, 40, 80}
	}
	return []int{5, 10, 20, 50, 100, 200}
}

// evalOnline replays each dataset through a live store in
// test-then-train order: every sampled instant first answers the full
// horizon sweep twice — once through the hybrid dispatch (forward/backward
// pattern paths) and once through the shadowed motion fallback — and only
// then receives the next observations, which the evaluator scores against
// the outstanding answers. The figures are read straight out of the
// store's online accuracy matrix, the same counters /metrics exports, so
// the experiment doubles as an end-to-end check that the prequential
// plumbing reproduces the paper's offline accuracy ordering.
func evalOnline(o Options) []Figure {
	o = o.withDefaults()
	var figs []Figure
	for _, kind := range datasetsFor(o) {
		figs = append(figs, evalDataset(kind, o)...)
	}
	return figs
}

func evalDataset(kind datagen.Kind, o Options) []Figure {
	sz := scale(o)
	horizons := evalHorizons(o)
	spec := datagen.DefaultSpec(kind, o.Seed)
	spec.Period = sz.period
	spec.SubTrajectories = sz.trainSubs + sz.querySubs

	tr := datagen.Generate(spec)
	st, err := store.New(store.Options{
		Config:              hpm.Config{Period: spec.Period},
		MinTrainPeriods:     sz.trainSubs,
		SynchronousTraining: true,
		Eval: evalq.Config{
			// Every sampled instant parks 2×len(horizons) answers and the
			// longest waits ~200 timestamps for truth; size the ring so
			// nothing is evicted before it can score.
			RingSize: 4096,
			Buckets:  append([]int(nil), horizons...),
		},
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: eval store: %v", err))
	}
	defer st.Close()

	id := kind.String()
	if err := st.ObserveBatch(id, tr.Slice(0, sz.trainSubs*spec.Period)); err != nil {
		panic(fmt.Sprintf("experiments: eval train: %v", err))
	}

	stride := spec.Period / 10
	total := tr.Len()
	for base := sz.trainSubs * spec.Period; base < total; base += stride {
		now, err := st.Now(id)
		if err != nil {
			panic(fmt.Sprintf("experiments: eval now: %v", err))
		}
		for _, h := range horizons {
			if now+h >= total {
				continue // truth would never arrive
			}
			if _, err := st.Predict(id, now+h, 1); err != nil {
				panic(fmt.Sprintf("experiments: eval predict: %v", err))
			}
			if _, err := st.PredictVia(id, hpm.PathFallback, now+h, 1); err != nil {
				panic(fmt.Sprintf("experiments: eval fallback: %v", err))
			}
		}
		end := base + stride
		if end > total {
			end = total
		}
		if err := st.ObserveBatch(id, tr.Slice(base, end)); err != nil {
			panic(fmt.Sprintf("experiments: eval observe: %v", err))
		}
	}

	sum, err := st.EvalStats(id)
	if err != nil {
		panic(fmt.Sprintf("experiments: eval stats: %v", err))
	}
	cfg := st.EvalConfig()

	// Fold the matrix into per-horizon hybrid (forward+backward) and
	// fallback rows keyed by the bucket label.
	type row struct {
		attempts, hits uint64
		errSum         float64
	}
	hybrid := map[string]*row{}
	fall := map[string]*row{}
	for _, c := range sum.Cells {
		m := hybrid
		if c.Path == "fallback" {
			m = fall
		}
		r := m[c.HorizonLE]
		if r == nil {
			r = &row{}
			m[c.HorizonLE] = r
		}
		r.attempts += c.Attempts
		r.hits += c.Hits
		r.errSum += c.ErrorSum
	}
	rate := func(r *row) float64 {
		if r == nil || r.attempts == 0 {
			return 0
		}
		return float64(r.hits) / float64(r.attempts)
	}
	merr := func(r *row) float64 {
		if r == nil || r.attempts == 0 {
			return 0
		}
		return r.errSum / float64(r.attempts)
	}

	hpmHit := Series{Name: "HPM (online)"}
	rmfHit := Series{Name: "RMF fallback"}
	hpmErr := Series{Name: "HPM (online)"}
	rmfErr := Series{Name: "RMF fallback"}
	for i, h := range horizons {
		label := cfg.BucketLabel(i)
		x := float64(h)
		hpmHit.X = append(hpmHit.X, x)
		hpmHit.Y = append(hpmHit.Y, rate(hybrid[label]))
		rmfHit.X = append(rmfHit.X, x)
		rmfHit.Y = append(rmfHit.Y, rate(fall[label]))
		hpmErr.X = append(hpmErr.X, x)
		hpmErr.Y = append(hpmErr.Y, merr(hybrid[label]))
		rmfErr.X = append(rmfErr.X, x)
		rmfErr.Y = append(rmfErr.Y, merr(fall[label]))
	}

	suffix := fmt.Sprintf(" (hit distance %g, test-then-train) — %s", cfg.HitDistance, kind)
	return []Figure{
		{
			ID:     "eval-hit-" + kind.String(),
			Title:  "Online Hit Rate vs Horizon" + suffix,
			XLabel: "prediction horizon",
			YLabel: "hit rate",
			Series: []Series{hpmHit, rmfHit},
		},
		{
			ID:     "eval-err-" + kind.String(),
			Title:  "Online Mean Error vs Horizon" + suffix,
			XLabel: "prediction horizon",
			YLabel: "mean error distance",
			Series: []Series{hpmErr, rmfErr},
		},
	}
}
