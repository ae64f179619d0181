// Command hpmbench regenerates the paper's evaluation figures (§VII) and
// the ablation studies documented in DESIGN.md, printing each figure as an
// aligned text table.
//
// Usage:
//
//	hpmbench -list
//	hpmbench -experiment fig5
//	hpmbench -experiment all -quick
//	hpmbench -experiment paper -out results_full.txt
//	hpmbench -experiment paper -check results_full.txt
//	hpmbench -experiment fig7 -seed 7 -out results.txt
//	hpmbench -experiment all -svg figures/
//	hpmbench -experiment retrain -json
//
// "paper" runs the fourteen experiments of the paper's evaluation and its
// ablations, the ones results_full.txt (and, with -quick,
// results_quick.txt) records; "all" adds the serving extensions. -check
// compares what the run prints with a recorded file, every column but the
// timings to the printed digit, and exits 1 on any difference.
//
// With -json, each experiment additionally writes BENCH_<name>.json — a
// machine-readable {experiment, params, series} record, with the run's
// GOMAXPROCS captured so throughput numbers can be interpreted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hpm/internal/experiments"
	"hpm/internal/svgplot"
)

func main() {
	var (
		name    = flag.String("experiment", "", "experiment to run (see -list), \"paper\" or \"all\"")
		quick   = flag.Bool("quick", false, "shrink sweeps and workloads for a fast smoke run")
		seed    = flag.Int64("seed", 1, "PRNG seed for data generation and query sampling")
		list    = flag.Bool("list", false, "list available experiments and exit")
		out     = flag.String("out", "", "write tables to this file instead of stdout")
		svg     = flag.String("svg", "", "also render each figure as an SVG into this directory")
		jsonOut = flag.Bool("json", false, "also write BENCH_<experiment>.json per experiment")
		check   = flag.String("check", "", "compare the tables with this recorded run, timings aside; exit 1 on a difference")
	)
	flag.Parse()

	if *list || *name == "" {
		fmt.Println("Available experiments:")
		for _, n := range experiments.Names() {
			e, _ := experiments.Get(n)
			fmt.Printf("  %-16s %s\n", n, e.Description)
		}
		if *name == "" && !*list {
			fmt.Println("\nrun with -experiment <name>, -experiment paper or -experiment all")
			os.Exit(2)
		}
		return
	}

	var w io.Writer = os.Stdout
	var printed strings.Builder
	if *check != "" {
		w = &printed
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpmbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
		if *check != "" {
			w = io.MultiWriter(f, &printed)
		}
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	names := []string{*name}
	switch *name {
	case "all":
		names = experiments.Names()
	case "paper":
		names = experiments.PaperNames()
	}
	for _, n := range names {
		e, ok := experiments.Get(n)
		if !ok {
			fmt.Fprintf(os.Stderr, "hpmbench: unknown experiment %q (use -list)\n", n)
			os.Exit(2)
		}
		start := time.Now()
		figs := e.Run(opts)
		fmt.Fprintf(w, "== %s: %s (completed in %v)\n", e.Name, e.Description, time.Since(start).Round(time.Millisecond))
		for _, f := range figs {
			f.WriteTable(w)
			fmt.Fprintln(w)
			if *svg != "" {
				if err := writeSVG(*svg, f); err != nil {
					fmt.Fprintln(os.Stderr, "hpmbench:", err)
					os.Exit(1)
				}
			}
		}
		if *jsonOut {
			if err := writeJSON(e.Name, opts, figs); err != nil {
				fmt.Fprintln(os.Stderr, "hpmbench:", err)
				os.Exit(1)
			}
		}
	}
	if *check != "" {
		recorded, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpmbench:", err)
			os.Exit(1)
		}
		diffs := experiments.Check(string(recorded), printed.String())
		for _, d := range diffs {
			fmt.Fprintln(os.Stderr, d)
		}
		if len(diffs) > 0 {
			fmt.Fprintf(os.Stderr, "hpmbench: %d differences from %s\n", len(diffs), *check)
			os.Exit(1)
		}
		fmt.Printf("hpmbench: %d experiments match %s\n", len(names), *check)
	}
}

// benchReport is the machine-readable form of one experiment run. Params
// records what shaped the numbers — the sweep configuration plus the host
// parallelism, without which timing series cannot be compared across runs.
type benchReport struct {
	Experiment string        `json:"experiment"`
	Params     benchParams   `json:"params"`
	Series     []benchSeries `json:"series"`
}

type benchParams struct {
	Seed       int64 `json:"seed"`
	Quick      bool  `json:"quick"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	NumCPU     int   `json:"numcpu"`
}

type benchSeries struct {
	Figure string    `json:"figure"`
	Title  string    `json:"title"`
	XLabel string    `json:"xlabel"`
	YLabel string    `json:"ylabel"`
	Name   string    `json:"name"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

// writeJSON flattens the experiment's figures into BENCH_<name>.json.
func writeJSON(name string, opts experiments.Options, figs []experiments.Figure) error {
	rep := benchReport{
		Experiment: name,
		Params: benchParams{
			Seed:       opts.Seed,
			Quick:      opts.Quick,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Series: []benchSeries{},
	}
	for _, f := range figs {
		for _, s := range f.Series {
			rep.Series = append(rep.Series, benchSeries{
				Figure: f.ID,
				Title:  f.Title,
				XLabel: f.XLabel,
				YLabel: f.YLabel,
				Name:   s.Name,
				X:      s.X,
				Y:      s.Y,
			})
		}
	}
	f, err := os.Create("BENCH_" + name + ".json")
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// writeSVG renders one figure into dir/<id>.svg. Pattern-count sweeps span
// orders of magnitude on x, so those get a logarithmic axis.
func writeSVG(dir string, fig experiments.Figure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	chart := svgplot.Chart{
		Title:  fig.Title,
		XLabel: fig.XLabel,
		YLabel: fig.YLabel,
		LogX:   strings.Contains(fig.XLabel, "number of patterns"),
	}
	for _, s := range fig.Series {
		chart.Series = append(chart.Series, svgplot.Series{Name: s.Name, X: s.X, Y: s.Y})
	}
	f, err := os.Create(filepath.Join(dir, fig.ID+".svg"))
	if err != nil {
		return err
	}
	defer f.Close()
	return svgplot.Render(chart, f)
}
