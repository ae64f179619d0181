// Command bench is the repository's benchmark: it builds cmd/hpmserve from
// the tree it runs in, starts it as a child on loopback, drives it with a
// fixed, seed-generated list of requests over keep-alive connections, and
// checks the answers against an in-process reference store.
//
//	go run -C bench .                                  every workload, a table
//	go run -C bench . --workload ingest_tick --seed 2  one workload, one JSON result line
//	go run -C bench . --workload fleet_mixed --trace 1 the per-layer metrics of that workload
//	go run -C bench . -agree                           two sets of three runs against the bounds
//
// It is a module of its own (go.mod beside this file, replace hpm => ../),
// so it builds from its own directory and the root module's tier-1 commands
// never see it.
//
// README.md in this directory says why each workload and metric exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds in BENCHMARK.json: the measured phase the
// op counts below were sized for on two cores.
const defaultSeconds = 10

// defaultScale is the op counts of a run of defaultSeconds.
func defaultScale() scale {
	return scale{
		Trained:         600,
		Cold:            5000,
		Conns:           min(2, runtime.NumCPU()),
		PredictBlocks:   110,
		PredictPerBlock: 1000,
		WarmTicks:       period,
		IngestTicks:     80,
		MixedTicks:      100,
		CleanOpens:      3,
		Recoveries:      3,
		RestartTicks:    20,
		VerifyRequests:  200,
		VerifyObjects:   24,
	}
}

// scaled stretches the measured block counts to the requested run length;
// block sizes, and so what one block measures, never change.
func (sc scale) scaled(seconds int) scale {
	mul := func(n int) int { return max(2, (n*seconds+defaultSeconds/2)/defaultSeconds) }
	sc.PredictBlocks = mul(sc.PredictBlocks)
	sc.IngestTicks = mul(sc.IngestTicks)
	sc.MixedTicks = mul(sc.MixedTicks)
	sc.CleanOpens = mul(sc.CleanOpens)
	sc.Recoveries = mul(sc.Recoveries)
	sc.maxTicks = sc.WarmTicks + max(sc.IngestTicks, sc.MixedTicks, sc.RestartTicks)
	return sc
}

// metric is one named number with its unit, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]metric  `json:"metrics"`
	raw       map[string]float64 // timings as the clock read them, and the probe's reading
	wall      time.Duration
	firstErr  error
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// setTimed reports a duration at the reference host speed (hostprobe.go)
// and keeps what the clock read, and the probe, beside it.
func (r *result) setTimed(name string, v float64, unit string, hs *hostSpeed, exponent float64) {
	r.set(name, v*hs.factor(exponent), unit)
	r.raw[name], r.raw[name+".probe_us"] = v, hs.probeUs()
}

// setRate is setTimed for a rate: a slower host is divided out.
func (r *result) setRate(name string, v float64, unit string, hs *hostSpeed, exponent float64) {
	r.set(name, v/hs.factor(exponent), unit)
	r.raw[name], r.raw[name+".probe_us"] = v, hs.probeUs()
}

// count folds a batch of attempts into the run's totals, keeping the first
// failure for the operator.
func (r *result) count(attempted, failed int, err error) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 && r.firstErr == nil {
		r.firstErr = err
	}
}

// provenance is recorded with every output so a number can be traced to
// the tree and host that produced it.
type provenance struct {
	Commit      string `json:"commit"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"seconds"`
	DataFS      string `json:"data_fs"`
	FlushPolicy string `json:"flush_policy"`
	Scale       scale  `json:"op_counts"`
}

func commitID() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

var workloadNames = []string{"point_predict", "ingest_tick", "fleet_mixed", "restart"}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload (point_predict, ingest_tick, fleet_mixed, restart); empty runs all four")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Int("seconds", defaultSeconds, "nominal measured seconds; scales the number of equal-work blocks")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics from an in-process replay instead of the end-to-end ones")
		agree    = flag.Bool("agree", false, "run two sets of -runs full runs and compare their spreads and medians with the bounds")
		runs     = flag.Int("runs", 3, "with -agree: runs per workload in each set (the driver makes 10)")
	)
	flag.Parse()
	if *seconds < 1 || *seconds > 60 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be 1..60")
		return 2
	}
	if *workload != "" && !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}

	// The child and the data directory go away on every exit path: normal
	// return, error, and a signal to the harness.
	defer cleanupAll()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanupAll()
		os.Exit(130)
	}()

	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if *agree {
		return runAgree(sp, *seconds, *runs)
	}

	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	prov := provenance{
		Commit: commitID(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
		FlushPolicy: "wal-sync=true, tmpfs", Scale: defaultScale().scaled(*seconds),
	}
	exit := 0
	for _, name := range names {
		var res *result
		var err error
		if *trace == 1 {
			if res, err = runTrace(name, *seed, prov.Scale, &prov); err == nil {
				err = checkNames(res, sp.PerLayer)
			}
		} else {
			if res, err = runWorkload(name, *seed, prov.Scale, &prov); err == nil {
				err = checkNames(res, sp.EndToEnd)
			}
		}
		if err != nil {
			// No result line: the run could not be made at all.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		if res.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: first failure: %v\n", name, res.firstErr)
		}
		if !res.Correct {
			exit = 1
		}
		report(name, res, &prov, *workload != "")
	}
	return exit
}

// report prints one workload's metrics by name with units, then — when a
// single workload was asked for — the result line the driver parses last.
func report(name string, res *result, prov *provenance, single bool) {
	pj, _ := json.Marshal(prov)
	fmt.Printf("# %s wall=%.1fs failed_share=%d/%d provenance=%s\n", name, res.wall.Seconds(), res.Failed, res.Attempted, pj)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-14s %-36s %14.4f %s\n", name, k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if len(res.raw) > 0 {
		rj, _ := json.Marshal(res.raw)
		fmt.Printf("# %s raw=%s\n", name, rj)
	}
	if single {
		line, _ := json.Marshal(res)
		fmt.Printf("%s\n", line)
	}
}
