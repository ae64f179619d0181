package experiments

import (
	"math/rand"
	"strconv"
	"time"

	"hpm/internal/bitkey"
	"hpm/internal/core"
	"hpm/internal/tpt"
)

func init() {
	register("fig10", "Figure 10: query response time vs training sub-trajectories, HPM vs RMF", fig10)
	register("fig11a", "Figure 11(a): TPT storage vs pattern count for 80/400/800 frequent regions", fig11a)
	register("fig11b", "Figure 11(b): search cost, TPT vs brute-force scan, vs pattern count", fig11b)
	register("tpt-chooseleaf", "Ablation: ChooseLeaf Intersect step (paper's addition) vs plain signature-tree descent", chooseLeafAblation)
}

// fig10 times full HPM queries against the pure-RMF baseline as the mined
// history grows. With few sub-trajectories HPM often falls through to RMF
// (expensive refit per query); with more patterns available, queries
// resolve in the TPT and response time drops well below RMF's.
func fig10(o Options) []Figure {
	o = o.withDefaults()
	counts := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	predLen := 50
	if o.Quick {
		counts = []int{5, 10, 20}
		predLen = 30
	}
	var figs []Figure
	for _, kind := range datasetsFor(o) {
		e := newEnv(kind, o, counts[len(counts)-1])
		rng := rand.New(rand.NewSource(o.Seed + 800))
		cases := e.queryCases(e.sz.timingQ, predLen, rng)
		rmf := rmfBaseline()

		// RMF cost is independent of the mined history.
		start := time.Now()
		e.motionError(rmf, cases, predLen)
		rmfPerQuery := float64(time.Since(start).Microseconds()) / float64(len(cases))

		hpmS := Series{Name: "HPM"}
		rmfS := Series{Name: "RMF"}
		for _, n := range counts {
			m := e.train(core.Params{}, n)
			start = time.Now()
			e.hpmError(m, cases, predLen)
			perQuery := float64(time.Since(start).Microseconds()) / float64(len(cases))
			hpmS.X = append(hpmS.X, float64(n))
			hpmS.Y = append(hpmS.Y, perQuery)
			rmfS.X = append(rmfS.X, float64(n))
			rmfS.Y = append(rmfS.Y, rmfPerQuery)
		}
		figs = append(figs, Figure{
			ID:     "fig10-" + kind.String(),
			Title:  "Query Response Time — " + kind.String(),
			XLabel: "number of sub-trajectories",
			YLabel: "response time (µs/query)",
			Series: []Series{hpmS, rmfS},
		})
	}
	return figs
}

// patternCounts is the Figure 11 x-axis.
func patternCounts(o Options) []int {
	if o.Quick {
		return []int{1000, 5000, 10000}
	}
	return []int{1000, 5000, 10000, 50000, 100000}
}

// syntheticItems builds n random pattern-key items over the given key
// universe: one consequence bit and 1..3 premise bits each, the shape real
// mined patterns have.
func syntheticItems(rng *rand.Rand, n, ckLen, rkLen int) []tpt.Item {
	items := make([]tpt.Item, n)
	for i := range items {
		k := bitkey.NewPatternKey(ckLen, rkLen)
		k.CK.Set(1 + rng.Intn(ckLen))
		for b := 0; b <= rng.Intn(3); b++ {
			k.RK.Set(1 + rng.Intn(rkLen))
		}
		items[i] = tpt.Item{Key: k, Conf: rng.Float64(), Ref: i}
	}
	return items
}

// syntheticQueries builds FQP-shaped queries: one consequence bit, a few
// premise bits.
func syntheticQueries(rng *rand.Rand, n, ckLen, rkLen int) []bitkey.PatternKey {
	qs := make([]bitkey.PatternKey, n)
	for i := range qs {
		q := bitkey.NewPatternKey(ckLen, rkLen)
		q.CK.Set(1 + rng.Intn(ckLen))
		for b := 0; b < 3; b++ {
			q.RK.Set(1 + rng.Intn(rkLen))
		}
		qs[i] = q
	}
	return qs
}

// fig11ConsequenceLen mirrors the paper's setup where consequence offsets
// are far fewer than frequent regions.
const fig11ConsequenceLen = 100

// fig11a reports TPT storage for 80, 400 and 800 frequent regions as the
// pattern count grows: key width scales with the region count, so the
// 800-region tree grows steepest.
func fig11a(o Options) []Figure {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed + 900))
	fig := Figure{
		ID:     "fig11a",
		Title:  "TPT Storage Consumption",
		XLabel: "number of patterns",
		YLabel: "storage size (MB)",
	}
	for _, regions := range []int{80, 400, 800} {
		s := Series{Name: strconv.Itoa(regions) + " regions"}
		for _, n := range patternCounts(o) {
			items := syntheticItems(rng, n, fig11ConsequenceLen, regions)
			tree := tpt.BulkLoad(fig11ConsequenceLen, regions, items, tpt.Options{})
			s.X = append(s.X, float64(n))
			s.Y = append(s.Y, float64(tree.Stats().StorageBytes)/1e6)
		}
		fig.Series = append(fig.Series, s)
	}
	return []Figure{fig}
}

// fig11b times TPT intersect search against a brute-force scan over the
// same items: the scan grows linearly with the pattern count while the
// tree stays near-flat.
func fig11b(o Options) []Figure {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed + 1000))
	const regions = 800
	queries := 200
	if o.Quick {
		queries = 50
	}
	tptS := Series{Name: "TPT (800)"}
	bfS := Series{Name: "Brute-force"}
	for _, n := range patternCounts(o) {
		items := syntheticItems(rng, n, fig11ConsequenceLen, regions)
		tree := tpt.BulkLoad(fig11ConsequenceLen, regions, items, tpt.Options{})
		bf := tpt.NewBruteForce(items)
		qs := syntheticQueries(rng, queries, fig11ConsequenceLen, regions)

		sink := 0
		count := func(int, int, bitkey.Key) bool { sink++; return true }
		start := time.Now()
		for _, q := range qs {
			tree.SearchIntersect(q, count)
		}
		tptS.X = append(tptS.X, float64(n))
		tptS.Y = append(tptS.Y, float64(time.Since(start).Microseconds())/float64(queries))

		start = time.Now()
		for _, q := range qs {
			bf.SearchIntersect(q, count)
		}
		bfS.X = append(bfS.X, float64(n))
		bfS.Y = append(bfS.Y, float64(time.Since(start).Microseconds())/float64(queries))
	}
	return []Figure{{
		ID:     "fig11b",
		Title:  "TPT Search Cost",
		XLabel: "number of patterns",
		YLabel: "response time (µs/query)",
		Series: []Series{tptS, bfS},
	}}
}

// chooseLeafAblation inserts the same synthetic pattern set with and
// without the paper's Intersect ChooseLeaf rule and compares search cost
// in nodes touched per query — the clustering benefit the rule buys.
func chooseLeafAblation(o Options) []Figure {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(o.Seed + 1100))
	const regions = 400
	withS := Series{Name: "with Intersect step"}
	withoutS := Series{Name: "without (signature tree)"}
	counts := patternCounts(o)
	queries := 200
	if o.Quick {
		queries = 50
	}
	for _, n := range counts {
		items := syntheticItems(rng, n, fig11ConsequenceLen, regions)
		qs := syntheticQueries(rng, queries, fig11ConsequenceLen, regions)

		build := func(disable bool) float64 {
			tree := tpt.New(fig11ConsequenceLen, regions, tpt.Options{DisableIntersectStep: disable})
			for _, it := range items {
				tree.Insert(it)
			}
			total := 0
			for _, q := range qs {
				total += tree.SearchIntersect(q, func(int, int, bitkey.Key) bool { return true })
			}
			return float64(total) / float64(len(qs))
		}
		withS.X = append(withS.X, float64(n))
		withS.Y = append(withS.Y, build(false))
		withoutS.X = append(withoutS.X, float64(n))
		withoutS.Y = append(withoutS.Y, build(true))
	}
	return []Figure{{
		ID:     "tpt-chooseleaf",
		Title:  "ChooseLeaf Intersect step ablation",
		XLabel: "number of patterns",
		YLabel: "tree nodes touched per query",
		Series: []Series{withS, withoutS},
	}}
}
