package hpm_test

// One benchmark per table/figure of the paper's evaluation (§VII), plus
// the ablations documented in DESIGN.md. Each figure benchmark runs its
// experiment in quick mode (shrunken sweeps, identical code paths); run
// cmd/hpmbench without -quick for the full paper-scale tables. The
// micro-benchmarks at the bottom time the individual operations the paper's
// cost arguments rest on (TPT search, RMF fitting, pattern mining).

import (
	"math/rand"
	"testing"

	"hpm"
	"hpm/internal/datagen"
	"hpm/internal/experiments"
	"hpm/internal/motion"
	"hpm/internal/trajectory"
)

// benchExperiment runs a registered experiment once per iteration.
func benchExperiment(b *testing.B, name string) {
	e, ok := experiments.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered", name)
	}
	opts := experiments.Options{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs := e.Run(opts)
		if len(figs) == 0 {
			b.Fatal("no figures")
		}
	}
}

// Figure 5: average error vs prediction length, HPM vs RMF.
func BenchmarkFig5PredictionLength(b *testing.B) { benchExperiment(b, "fig5") }

// Figure 6: average error vs number of training sub-trajectories.
func BenchmarkFig6SubTrajectories(b *testing.B) { benchExperiment(b, "fig6") }

// Figure 7: effect of DBSCAN Eps on pattern count and accuracy.
func BenchmarkFig7Eps(b *testing.B) { benchExperiment(b, "fig7") }

// Figure 8: effect of DBSCAN MinPts on pattern count and accuracy.
func BenchmarkFig8MinPts(b *testing.B) { benchExperiment(b, "fig8") }

// Figure 9: effect of minimum confidence on pattern count and accuracy.
func BenchmarkFig9MinConfidence(b *testing.B) { benchExperiment(b, "fig9") }

// Figure 10: query response time, HPM vs RMF.
func BenchmarkFig10QueryCost(b *testing.B) { benchExperiment(b, "fig10") }

// Figure 11(a): TPT storage consumption.
func BenchmarkFig11aStorage(b *testing.B) { benchExperiment(b, "fig11a") }

// Figure 11(b): TPT search cost vs brute force.
func BenchmarkFig11bSearch(b *testing.B) { benchExperiment(b, "fig11b") }

// §IV claim: rule reduction from the paper's pruning (58% in the paper).
func BenchmarkPruningAblation(b *testing.B) { benchExperiment(b, "pruning") }

// Ablation: premise-similarity weight functions.
func BenchmarkWeightsAblation(b *testing.B) { benchExperiment(b, "weights") }

// Ablation: motion fallback choice.
func BenchmarkFallbackAblation(b *testing.B) { benchExperiment(b, "fallback") }

// Ablation: BQP premise penalty (Equation 5 vs 4).
func BenchmarkBQPPenaltyAblation(b *testing.B) { benchExperiment(b, "bqp-penalty") }

// Ablation: BQP time relaxation length.
func BenchmarkTimeRelaxationAblation(b *testing.B) { benchExperiment(b, "trelax") }

// Ablation: TPT ChooseLeaf Intersect step.
func BenchmarkChooseLeafAblation(b *testing.B) { benchExperiment(b, "tpt-chooseleaf") }

// --- micro-benchmarks -------------------------------------------------

// benchPredictor trains one moderate Bike model for query benches.
func benchPredictor(b *testing.B) (*hpm.Predictor, *hpm.Trajectory, hpm.DatasetSpec) {
	b.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = 150
	spec.SubTrajectories = 45
	tr := hpm.GenerateDataset(spec)
	p, err := hpm.Train(tr, hpm.Config{Period: spec.Period, SubTrajectories: 40})
	if err != nil {
		b.Fatal(err)
	}
	return p, tr, spec
}

// BenchmarkTrain measures end-to-end model construction: decomposition,
// DBSCAN, Apriori, key tables, TPT bulk load.
func BenchmarkTrain(b *testing.B) {
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = 150
	spec.SubTrajectories = 40
	tr := hpm.GenerateDataset(spec)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hpm.Train(tr, hpm.Config{Period: spec.Period}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictFQP measures forward-query-path (near) predictions;
// allocations are reported because the query path is built to be
// allocation-lean (pooled scratch, memoized weights, heap-based top-k).
func BenchmarkPredictFQP(b *testing.B) {
	p, tr, spec := benchPredictor(b)
	rng := rand.New(rand.NewSource(1))
	queries := make([][]hpm.TimedPoint, 64)
	tqs := make([]int, 64)
	for i := range queries {
		day := 40 + rng.Intn(5)
		tc := day*spec.Period + 20 + rng.Intn(60)
		recent, err := tr.Recent(tc, 10)
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = recent
		tqs[i] = tc + 20 // near: below the default distant threshold
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(queries)
		if _, err := p.Predict(queries[q], tqs[q], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictBQP measures backward-query-path (distant) predictions,
// k = 1, in the two positions a query time can have relative to the model.
//
//   - near: the object is regular all period long, so some pattern's
//     consequence offset lies inside BQP's base window around tq.
//   - far: the object is regular only during the first 60 of its 150
//     offsets and wanders for the rest, and tq lands at offset 90: the
//     nearest consequence offset is 31 steps back. Algorithm 3 widens its
//     window sixteen times to get there; the engine computes that window
//     and searches once, so the case costs one search and allocates per
//     query, not per widening step.
func BenchmarkPredictBQP(b *testing.B) {
	b.Run("near", func(b *testing.B) {
		p, tr, spec := benchPredictor(b)
		rng := rand.New(rand.NewSource(2))
		// 80 ahead: beyond the default distant threshold of 60.
		benchBQP(b, p, tr, 80, func() int { return (40+rng.Intn(5))*spec.Period + 20 + rng.Intn(40) })
	})
	b.Run("far", func(b *testing.B) {
		const regular = 60
		spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
		spec.Period = 150
		spec.SubTrajectories = 45
		pts := append([]hpm.Point(nil), hpm.GenerateDataset(spec).Points()...)
		rng := rand.New(rand.NewSource(4))
		for t := range pts {
			if t%spec.Period >= regular {
				pts[t] = hpm.Pt(rng.Float64()*10000, rng.Float64()*10000)
			}
		}
		tr := hpm.NewTrajectory(pts)
		p, err := hpm.Train(tr, hpm.Config{Period: spec.Period, SubTrajectories: 40})
		if err != nil {
			b.Fatal(err)
		}
		// From offset 30, 60 ahead: offset 90, 31 steps past the last
		// regular offset.
		benchBQP(b, p, tr, 60, func() int { return (40+rng.Intn(5))*spec.Period + 30 })
	})
}

// benchBQP draws 64 current times from nextTc, asks each for the location
// horizon steps ahead, round-robin, and insists that BQP, not a
// fall-through path, answered every query.
func benchBQP(b *testing.B, p *hpm.Predictor, tr *hpm.Trajectory, horizon int, nextTc func() int) {
	b.Helper()
	queries := make([][]hpm.TimedPoint, 64)
	tqs := make([]int, len(queries))
	for i := range queries {
		tc := nextTc()
		recent, err := tr.Recent(tc, 10)
		if err != nil {
			b.Fatal(err)
		}
		queries[i], tqs[i] = recent, tc+horizon
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := i % len(queries)
		preds, err := p.Predict(queries[q], tqs[q], 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(preds) != 1 || preds[0].Path != hpm.PathBackward {
			b.Fatalf("query %d answered by %+v, want one backward prediction", q, preds)
		}
	}
}

// BenchmarkRMFFit measures one self-training RMF construction, the unit the
// paper's query-cost comparison charges per fallback.
func BenchmarkRMFFit(b *testing.B) {
	spec := hpm.DefaultDatasetSpec(hpm.DatasetCar, 7)
	spec.Period = 150
	spec.SubTrajectories = 2
	tr := hpm.GenerateDataset(spec)
	recent := make([]trajectory.TimedPoint, 60)
	for i := range recent {
		recent[i] = trajectory.TimedPoint{T: i, Loc: tr.At(i)}
	}
	bounds := datagen.Extent
	cfg := motion.RMFConfig{Retrospect: 8, Window: 120, AutoRetrospect: true, Bounds: &bounds}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn := motion.NewRMF(cfg)
		if err := fn.Fit(recent); err != nil {
			b.Fatal(err)
		}
		if _, err := fn.Predict(100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDatasetGeneration measures the synthetic data generator.
func BenchmarkDatasetGeneration(b *testing.B) {
	spec := hpm.DefaultDatasetSpec(hpm.DatasetAirplane, 11)
	spec.SubTrajectories = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hpm.GenerateDataset(spec)
	}
}
