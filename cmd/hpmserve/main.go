// Command hpmserve runs the moving-objects prediction service: a JSON HTTP
// API over a fleet of per-object Hybrid Prediction Models.
//
//	hpmserve -addr :8080 -period 300 -data-dir /var/lib/hpm
//
//	curl -XPOST localhost:8080/objects/bus-7/observe \
//	     -d '{"points": [[120.5, 88.2], [121.0, 90.1]]}'
//	curl -XPOST localhost:8080/observe \
//	     -d '[{"id": "bus-7", "points": [[120.5, 88.2]]}, {"id": "bus-8", "points": [[4.2, 9.9]]}]'
//	curl 'localhost:8080/objects/bus-7/predict?horizon=30&k=3'
//	curl 'localhost:8080/objects/bus-7/trajectory?from=900&to=950'
//	curl  localhost:8080/objects
//	curl  localhost:8080/metrics
//	curl  localhost:8080/readyz
//
// With -fleet-index, the store maintains a spatial index over every
// object's predicted positions, adding fleet-wide predictive queries:
//
//	curl 'localhost:8080/query/range?minx=0&miny=0&maxx=500&maxy=500&horizon=30'
//	curl 'localhost:8080/query/knn?x=120&y=88&k=5&horizon=30'
//	curl -N 'localhost:8080/subscribe?minx=0&miny=0&maxx=500&maxy=500&horizon=30&interval_ms=1000'
//
// With -data-dir, the store is durable: every acknowledged observation is
// written to a write-ahead log before the HTTP response goes out, atomic
// snapshots are taken every -snapshot-every (and on shutdown), and a
// restart — graceful or a crash — replays snapshot + WAL tail, losing
// nothing acknowledged.
//
// The server degrades instead of collapsing: -max-inflight bounds
// concurrent requests (reads outrank writes outrank control work under
// -shed-policy priority; overflow is answered 429/503 + Retry-After),
// -request-timeout deadlines every request, -max-subscribers caps live
// SSE streams, and a durable store that loses its disk (-degrade-after
// consecutive WAL fsync failures, or any ENOSPC/torn write) flips
// read-only — serving queries from memory, 503ing writes — and probes the
// disk every -probe-interval (doubling) until it can recover on its own.
// /readyz reports 503 while degraded so load balancers route writes away;
// /healthz stays 200 because restarting the process would not fix the
// disk.
//
// -pprof 127.0.0.1:6060 serves net/http/pprof on a second, loopback-only
// mux so ingest and query hotspots can be profiled in place without
// exposing profiles on the API address.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpm"
	"hpm/internal/faultinject"
	"hpm/internal/spatial"
	"hpm/serve"
	"hpm/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		period   = flag.Int("period", 300, "pattern period T (samples per day/cycle)")
		minDays  = flag.Int("min-train", store.DefaultMinTrainPeriods, "periods before first training")
		retrain  = flag.Int("retrain-every", 0, "full retrain after this many new periods (0 = extends only)")
		eps      = flag.Float64("eps", 0, "DBSCAN Eps (0 = paper default 30)")
		minPts   = flag.Int("minpts", 0, "DBSCAN MinPts (0 = paper default 4)")
		distant  = flag.Int("distant", 0, "distant-time threshold d (0 = paper default 60)")
		dataDir  = flag.String("data-dir", "", "durable store directory (WAL + snapshots); crash-safe (empty = in-memory only)")
		snapEach = flag.Duration("snapshot-every", 5*time.Minute, "periodic snapshot interval with -data-dir (0 = shutdown only)")
		walSync  = flag.Bool("wal-sync", true, "fsync the WAL on every observe; disable to trade crash durability for ingest throughput")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060); empty disables")
		evalOff  = flag.Bool("eval-off", false, "disable online prediction-quality evaluation (/metrics eval series stay zero)")
		evalHit  = flag.Float64("eval-hit-distance", 0, "distance within which a scored prediction counts as a hit (0 = default 30)")
		evalRing = flag.Int("eval-ring", 0, "outstanding predictions kept per object awaiting truth (0 = default 64)")
		drift    = flag.Float64("drift-threshold", 0, "mean-error EWMA above which an early retrain fires (0 = drift retraining off)")
		adaptive = flag.Bool("adaptive-routing", false, "route each query to whichever path — pattern, markov or motion fallback — measurably leads at its horizon")

		markovOrder = flag.Int("markov-order", 0, "max context length of the Markov next-region predictor (0 = default 3, negative = disable the markov path)")
		markovMin   = flag.Int("markov-min-count", 0, "observations a region transition needs before the markov path will use it (0 = default 2)")

		fleetIndex = flag.Bool("fleet-index", false, "maintain the fleet spatial index: enables /query/range, /query/knn and /subscribe")
		indexCell  = flag.Float64("index-cell", 50, "fleet-index grid cell size in world units")
		indexStale = flag.Duration("index-staleness", 0, "hide indexed objects not observed within this window (0 = never)")
		indexTick  = flag.Float64("index-tick-hz", 0, "ticks per wall-clock second for aging indexed positions between observes (0 = aging off, exact answers)")
		indexSpeed = flag.Float64("index-max-speed", 0, "per-tick speed clamp for aging drift (0 = half a cell per tick)")

		maxInflight = flag.Int("max-inflight", 256, "concurrently executing requests; overflow past a bounded wait queue is shed with 429 + Retry-After (0 = unlimited)")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline, threaded into the store so expired work is abandoned (0 = none)")
		shedPolicy  = flag.String("shed-policy", "priority", "admission policy under load: priority (reads outrank writes outrank control) or fair (one shared limit)")
		maxSubs     = flag.Int("max-subscribers", serve.DefaultMaxSubscribers, "concurrent SSE /subscribe streams; when full, the client most behind on its write deadline is evicted first (negative = unlimited)")
		degrade     = flag.Int("degrade-after", store.DefaultDegradeAfter, "consecutive WAL fsync failures before the store flips degraded read-only (torn writes and ENOSPC flip it immediately)")
		probeEvery  = flag.Duration("probe-interval", store.DefaultProbeInterval, "initial delay between disk-recovery probes while degraded; doubles up to 15s")
		faultSpec   = flag.String("fault", "", "inject a fault for testing, as op:n — fail the first n hits of that fault point (e.g. wal-sync-error:5); see internal/faultinject")
	)
	flag.Parse()
	if *shedPolicy != "priority" && *shedPolicy != "fair" {
		log.Fatalf("hpmserve: -shed-policy %q: want priority or fair", *shedPolicy)
	}
	if !*fleetIndex {
		// The four -index-* flags shape an index only -fleet-index builds.
		flag.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "index-") {
				log.Fatalf("hpmserve: -%s is set without -fleet-index: there is no index for it to shape", f.Name)
			}
		})
	}
	faultHook, err := parseFault(*faultSpec)
	if err != nil {
		log.Fatalf("hpmserve: -fault %q: %v", *faultSpec, err)
	}

	if *pprofAt != "" {
		go servePprof(*pprofAt)
	}

	opts := store.Options{
		Config: hpm.Config{
			Period:           *period,
			Eps:              *eps,
			MinPts:           *minPts,
			DistantThreshold: *distant,
			MarkovOrder:      *markovOrder,
			MarkovMinCount:   *markovMin,
		},
		MinTrainPeriods: *minDays,
		RetrainEvery:    *retrain,
		WALNoSync:       !*walSync,
		EvalDisabled:    *evalOff,
		DriftThreshold:  *drift,
		AdaptiveRouting: *adaptive,
		DegradeAfter:    *degrade,
		ProbeInterval:   *probeEvery,
	}
	opts.Eval.HitDistance = *evalHit
	opts.Eval.RingSize = *evalRing
	if *fleetIndex {
		opts.FleetIndex = &spatial.Config{
			CellSize:  *indexCell,
			Staleness: *indexStale,
			TickHz:    *indexTick,
			MaxSpeed:  *indexSpeed,
		}
	}
	st, err := openStore(*dataDir, opts)
	if err != nil {
		log.Fatal(err)
	}
	if faultHook != nil {
		log.Printf("hpmserve: fault injection active (-fault %s) — testing only", *faultSpec)
		st.SetFaultHook(faultHook)
	}
	if *dataDir != "" && *snapEach > 0 {
		go snapshotLoop(st, *snapEach)
	}

	srv := &http.Server{
		Addr: *addr,
		Handler: serve.NewHandler(st, serve.Limits{
			MaxInflight:    *maxInflight,
			RequestTimeout: *reqTimeout,
			ShedPolicy:     *shedPolicy,
			MaxSubscribers: *maxSubs,
			FaultHook:      faultHook,
		}),
		// A slow or hostile client must not pin a connection forever.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	go shutdownOnSignal(srv, st)
	fmt.Printf("hpmserve listening on %s (period %d, first train after %d periods)\n",
		*addr, st.Period(), *minDays)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
}

// parseFault turns an op:n spec into a FailN hook: the first n hits of
// that fault point fail, then the disk "heals" — which is exactly the
// shape a degradation smoke test wants (degrade, observe the read-only
// window, watch the probe recover). disk-full faults carry ENOSPC so the
// store's immediate-degrade path is the one exercised.
func parseFault(spec string) (faultinject.Hook, error) {
	if spec == "" {
		return nil, nil
	}
	opName, nstr, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, errors.New("want op:n")
	}
	n, err := strconv.ParseInt(nstr, 10, 64)
	if err != nil || n <= 0 {
		return nil, fmt.Errorf("bad count %q: want a positive integer", nstr)
	}
	op := faultinject.Op(opName)
	var cause error
	if op == faultinject.OpDiskFull {
		cause = syscall.ENOSPC
	}
	return faultinject.FailN(op, n, cause), nil
}

// openStore picks the persistence mode: durable (WAL + snapshots) with
// -data-dir, in-memory otherwise.
func openStore(dataDir string, opts store.Options) (*store.Store, error) {
	if dataDir != "" {
		st, err := store.Open(dataDir, opts)
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", dataDir, err)
		}
		h := st.Health()
		fmt.Printf("durable store %s: %d objects (snapshot restored: %v, wal records replayed: %d)\n",
			dataDir, h.Objects, h.SnapshotRestored, h.WALReplayed)
		fmt.Printf("open took: load %.3fs (%d models), wal replay %.3fs (%d extends), recover models %.3fs, index rebuild %.3fs\n",
			h.Open.LoadSeconds, h.Open.Models, h.Open.ReplaySeconds, h.Open.ReplayExtends, h.Open.RecoverSeconds, h.Open.IndexSeconds)
		return st, nil
	}
	return store.New(opts)
}

// servePprof exposes the runtime profiler on its own mux, never the API
// server's: profiles leak heap contents and must not ride the public
// listen address. Only loopback addresses are accepted, so a stray
// -pprof 0.0.0.0:6060 is refused rather than silently exposed.
func servePprof(addr string) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		log.Printf("hpmserve: -pprof %q: %v", addr, err)
		return
	}
	if host != "localhost" && !net.ParseIP(host).IsLoopback() {
		log.Printf("hpmserve: -pprof %q refused: profiling binds loopback addresses only", addr)
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Printf("pprof listening on %s (CPU: /debug/pprof/profile, heap: /debug/pprof/heap)\n", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("hpmserve: pprof: %v", err)
	}
}

// snapshotLoop checkpoints the durable store on a fixed cadence so the
// WAL stays short and restart replay stays fast. Checkpoint failures keep
// every WAL segment, so they cost recovery time, not data.
func snapshotLoop(st *store.Store, every time.Duration) {
	for range time.Tick(every) {
		if err := st.Checkpoint(); err != nil {
			log.Printf("hpmserve: periodic snapshot: %v", err)
		}
	}
}

// shutdownOnSignal drains background trains when the process is
// interrupted, persists the fleet (final checkpoint for durable stores),
// then stops the server.
func shutdownOnSignal(srv *http.Server, st *store.Store) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
	// Close drains in-flight trains so the snapshot captures the freshest
	// models, then checkpoints durable stores.
	if err := st.Close(); err != nil {
		log.Printf("hpmserve: shutdown: %v", err)
	}
	srv.Close()
}
