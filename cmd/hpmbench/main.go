// Command hpmbench regenerates the paper's evaluation figures (§VII) and
// the ablation studies documented in DESIGN.md, printing each figure as an
// aligned text table.
//
// Usage:
//
//	hpmbench -list
//	hpmbench -experiment fig5
//	hpmbench -experiment all -quick
//	hpmbench -experiment fig7 -seed 7 -out results.txt
//	hpmbench -experiment all -svg figures/
//	hpmbench -experiment retrain -json
//
// With -json, each experiment additionally writes BENCH_<name>.json — a
// machine-readable {experiment, params, series} record, with the run's
// GOMAXPROCS captured so throughput numbers can be interpreted. A few
// experiments publish their artifact under a better-known label (the
// fleetquery experiment writes BENCH_fleet_query.json).
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
		name    = flag.String("experiment", "", "experiment to run (see -list), or \"all\"")
		quick   = flag.Bool("quick", false, "shrink sweeps and workloads for a fast smoke run")
		seed    = flag.Int64("seed", 1, "PRNG seed for data generation and query sampling")
		list    = flag.Bool("list", false, "list available experiments and exit")
		out     = flag.String("out", "", "write tables to this file instead of stdout")
		svg     = flag.String("svg", "", "also render each figure as an SVG into this directory")
		jsonOut = flag.Bool("json", false, "also write BENCH_<experiment>.json per experiment")
	)
	flag.Parse()

	if *list || *name == "" {
		fmt.Println("Available experiments:")
		for _, n := range experiments.Names() {
			e, _ := experiments.Get(n)
			fmt.Printf("  %-16s %s\n", n, e.Description)
		}
		if *name == "" && !*list {
			fmt.Println("\nrun with -experiment <name> or -experiment all")
			os.Exit(2)
		}
		return
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hpmbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	names := []string{*name}
	if *name == "all" {
		names = experiments.Names()
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
			if err := writeJSON(e.OutputName(), opts, figs); err != nil {
				fmt.Fprintln(os.Stderr, "hpmbench:", err)
				os.Exit(1)
			}
		}
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
