package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"hpm/internal/core"
	"hpm/internal/datagen"
	"hpm/internal/trajectory"
)

func init() {
	registerExtension("retrain",
		"Retrain cost: full batch retrain vs incremental Extend as history grows, with accuracy divergence", retrain)
}

// retrainSizes is the experiment's own scale: a long stream (the trend
// only emerges over many periods) at a moderate period, independent of the
// paper-faithful sizes the accuracy figures use.
func retrainSizes(o Options) (sz sizes, start, stride int) {
	if o.Quick {
		return sizes{period: 120, trainSubs: 36, querySubs: 6, timingQ: 8, recentW: 10}, 8, 8
	}
	return sizes{period: 120, trainSubs: 480, querySubs: 8, timingQ: 16, recentW: 10}, 24, 48
}

// retrain measures the model-maintenance cost of keeping an HPM current
// on an endless stream, comparing three policies as history accumulates:
//
//   - full retrain: re-mine the entire track every period, the pre-
//     incremental behaviour. Per-update cost grows with the track length
//     (the per-offset DBSCAN alone is quadratic in periods);
//   - extend: delta-mine only the new period into a persistent model
//     (region discovery on). Per-update cost tracks the new data and
//     stays flat no matter how much history the model has absorbed;
//   - extend windowed: the same with a sliding HistoryWindow, which also
//     retires expired periods — the bounded-memory configuration a store
//     with RetainPeriods runs.
//
// A second figure tracks prediction accuracy of the batch-retrained and
// incrementally extended models over the same held-out queries at each
// measurement point, showing the cheap path does not drift away from the
// ground-truth rebuild.
func retrain(o Options) []Figure {
	o = o.withDefaults()
	sz, start, stride := retrainSizes(o)
	predLen := 20
	spec := datagen.DefaultSpec(datagen.Bike, o.Seed)
	spec.Period = sz.period
	spec.SubTrajectories = sz.trainSubs + sz.querySubs
	subs, err := datagen.Generate(spec).Decompose(spec.Period)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	e := &env{kind: datagen.Bike, spec: spec, subs: subs, sz: sz, chain: true}
	train := e.subs[:sz.trainSubs]

	// All policies begin from the same trained prefix. The first Extend
	// seeds the incremental miner by replaying the model's live chains — a
	// one-time cost charged here, outside the measured stream.
	inc := e.train(core.Params{}, start)
	win := e.train(core.Params{HistoryWindow: start}, start)
	timeExtend(inc, train[start:start+1])
	timeExtend(win, train[start:start+1])

	rng := rand.New(rand.NewSource(o.Seed + 1400))
	cases := e.queryCases(sz.timingQ, predLen, rng)

	batchCost := Series{Name: "full retrain"}
	extendCost := Series{Name: "extend"}
	windowCost := Series{Name: "extend windowed"}
	batchErr := Series{Name: "full retrain"}
	extendErr := Series{Name: "extend"}

	for day := start + 1; day < len(train); day++ {
		newDay := train[day : day+1]
		extendNs := timeExtend(inc, newDay)
		windowNs := timeExtend(win, newDay)
		if (day-start)%stride != 0 {
			continue
		}
		// The batch policy pays a full re-mine of everything up to and
		// including the day the other policies just absorbed.
		bStart := time.Now()
		batch := e.train(core.Params{}, day+1)
		batchNs := time.Since(bStart)

		x := float64(day + 1)
		batchCost.X = append(batchCost.X, x)
		batchCost.Y = append(batchCost.Y, float64(batchNs.Microseconds())/1e3)
		extendCost.X = append(extendCost.X, x)
		extendCost.Y = append(extendCost.Y, float64(extendNs.Microseconds())/1e3)
		windowCost.X = append(windowCost.X, x)
		windowCost.Y = append(windowCost.Y, float64(windowNs.Microseconds())/1e3)

		batchErr.X = append(batchErr.X, x)
		batchErr.Y = append(batchErr.Y, e.hpmError(batch, cases, predLen))
		extendErr.X = append(extendErr.X, x)
		extendErr.Y = append(extendErr.Y, e.hpmError(inc, cases, predLen))
	}

	suffix := fmt.Sprintf(" — %s, T=%d", e.kind, e.spec.Period)
	return []Figure{
		{
			ID:     "retrain-cost",
			Title:  "Model Maintenance Cost per Period vs History" + suffix,
			XLabel: "periods of history",
			YLabel: "update cost (ms)",
			Series: []Series{batchCost, extendCost, windowCost},
		},
		{
			ID:     "retrain-accuracy",
			Title:  "Prediction Error: batch-retrained vs extended model" + suffix,
			XLabel: "periods of history",
			YLabel: "avg error (distance)",
			Series: []Series{batchErr, extendErr},
		},
	}
}

// timeExtend absorbs one day into the model and returns the wall time.
func timeExtend(m *core.Model, day []trajectory.SubTrajectory) time.Duration {
	start := time.Now()
	if _, err := m.Extend(day); err != nil {
		panic(fmt.Sprintf("experiments: extend: %v", err))
	}
	return time.Since(start)
}
