package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
)

// spec is the part of BENCHMARK.json the harness reads back: the names it
// must print, and the bounds -agree holds two sets of runs to.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("run from the bench directory of a checkout: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// checkNames holds a result to the contract: exactly the metrics
// BENCHMARK.json lists for this kind of run, with its units.
func checkNames(res *result, want []specMetric) error {
	if len(res.Metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, BENCHMARK.json lists %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", m.Name)
		}
		if got.Unit != m.Unit {
			return fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, got.Unit, m.Unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, got.Value)
		}
	}
	return nil
}

// quartileSpread is the distance between the first and third quartile of
// vs over their median, the quartiles as Python's statistics.quantiles(vs,
// n=4) gives them (exclusive method): what the driver holds each metric's
// ten runs to.
func quartileSpread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return ratio(q(3)-q(1), median(s))
}

// runAgree measures the same tree twice — two sets of runs runs of every
// workload, each run on another seed, as the driver does — and holds every
// end-to-end metric to its bound twice over: the spread inside each set,
// and how much worse the second set's median is than the first's. A
// benchmark whose own repeat differs by more than a metric's bound cannot
// hold a later change to that bound.
func runAgree(sp *spec, seconds, runs int) int {
	sc := defaultScale().scaled(seconds)
	sets := [2]map[string]map[string][]float64{}
	for s := range sets {
		sets[s] = map[string]map[string][]float64{}
		for _, name := range workloadNames {
			sets[s][name] = map[string][]float64{}
			for run := 0; run < runs; run++ {
				var prov provenance
				seed := int64(s*runs + run + 1)
				res, err := runWorkload(name, seed, sc, &prov)
				if err == nil && !res.Correct {
					err = fmt.Errorf("%d of %d failed: %v", res.Failed, res.Attempted, res.firstErr)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: agree: %s: %v\n", name, err)
					return 1
				}
				for k, m := range res.Metrics {
					sets[s][name][k] = append(sets[s][name][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "agree: set %d %s seed %d done in %.0fs\n", s+1, name, seed, res.wall.Seconds())
			}
		}
	}
	exit := 0
	fmt.Printf("%-14s %-18s %12s %8s %12s %8s %8s %6s\n", "workload", "metric", "set 1 median", "spread", "set 2 median", "spread", "worse by", "bound")
	for _, name := range workloadNames {
		for _, m := range sp.EndToEnd {
			a, b := sets[0][name][m.Name], sets[1][name][m.Name]
			worse := ratio(median(b)-median(a), median(a))
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			// The driver leaves the spread of setup_s unchecked.
			spreadOver := m.Name != "setup_s" && runs >= 2 && max(quartileSpread(a), quartileSpread(b)) > m.Bound
			if worse > m.Bound || spreadOver {
				verdict = "  EXCEEDS"
				exit = 1
			}
			fmt.Printf("%-14s %-18s %12.4f %8.4f %12.4f %8.4f %+8.4f %6.2f%s\n",
				name, m.Name, median(a), quartileSpread(a), median(b), quartileSpread(b), worse, m.Bound, verdict)
		}
	}
	return exit
}
