GO ?= go

.PHONY: build test race vet reach profile bench bench-query bench-serve bench-ingest bench-refresh bench-eval bench-markov bench-retrain bench-fleet bench-recovery bench-extend bench-train chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Production code is what a binary links. Build every command, every example
# and the benchmark harness without inlining (so a function that is called
# keeps its symbol), take the hpm functions their symbol tables list, and
# fail on any func declared in the non-test files of a non-main package that
# none of them links, unless reach-allow.txt names it with a reason. An
# allow-list line for a symbol that is linked, or no longer declared, fails
# too.
reach:
	@set -e; export LC_ALL=C; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -gcflags=all=-l -o $$tmp/ ./cmd/... ./examples/...; \
	(cd bench && $(GO) build -gcflags=all=-l -o $$tmp/bench .); \
	for b in $$tmp/*; do $(GO) tool nm $$b; done \
	| awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^hpm[.\/]/ { print $$3 }' \
	| sed -e 's/\[[^]]*\]//g' -e 's/(\*\([^)]*\))/\1/g' | sort -u > $$tmp/linked; \
	$(GO) list -f '{{if ne .Name "main"}}{{.ImportPath}} {{.Dir}}{{end}}' ./... | while read -r pkg dir; do \
	  for f in $$dir/*.go; do case $$f in *_test.go) continue;; esac; \
	    awk -v p=$$pkg '/^func / { s = substr($$0, 6); t = ""; \
	      if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); n = split(r, a, " "); t = a[n]; \
	        sub(/^\*/, "", t); sub(/\[.*/, "", t); t = t "."; s = substr(s, index(s, ")") + 2) } \
	      sub(/[[(].*/, "", s); if (s != "init") print p "." t s }' $$f; \
	  done; \
	done | sort -u > $$tmp/declared; \
	awk '!/^#/ && NF == 1 { print "reach: no reason given for " $$1; bad = 1 } END { exit bad }' reach-allow.txt; \
	awk '!/^#/ && NF { print $$1 }' reach-allow.txt | sort > $$tmp/allowed; \
	comm -23 $$tmp/declared $$tmp/linked > $$tmp/unlinked; \
	fail=0; \
	for s in $$(comm -23 $$tmp/unlinked $$tmp/allowed); do echo "reach: $$s is linked by no binary"; fail=1; done; \
	for s in $$(comm -12 $$tmp/allowed $$tmp/linked); do echo "reach: $$s is allow-listed but linked"; fail=1; done; \
	for s in $$(comm -23 $$tmp/allowed $$tmp/declared); do echo "reach: $$s is allow-listed but not declared"; fail=1; done; \
	test $$fail = 0 && echo "reach: $$(wc -l < $$tmp/declared) functions declared, $$(wc -l < $$tmp/allowed) allow-listed, the rest linked"

# CPU profile of hpmserve under one harness workload: make profile
# WORKLOAD=point_predict (fleet_mixed by default). The harness is built with
# go build -overlay from a temporary copy of bench/server.go that adds
# -pprof 127.0.0.1:$(PPROF_PORT) to the child's flags, so nothing under
# bench/ changes, and run from bench/ with --seconds 60. The
# child is profiled in 2 s parts until the harness exits; the parts that
# start before set-up ends (the raw setup_s after the first part) are
# dropped, and the rest, the measured phase with the accuracy probe and the
# verification behind it, are merged into bench/out/cpu-$(WORKLOAD).pprof
# and printed with go tool pprof -top -cum. The harness and its child are
# gone when it ends.
WORKLOAD ?= fleet_mixed
PPROF_PORT ?= 6060
profile:
	@set -e; tmp=$$(mktemp -d); pid=; \
	trap 'if [ -n "$$pid" ]; then kill $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; fi; rm -rf "$$tmp"' EXIT; \
	trap 'exit 130' INT TERM; \
	sed 's|^\(\t*\)"-data-dir", dataDir,$$|&\n\1"-pprof", "127.0.0.1:$(PPROF_PORT)",|' bench/server.go > $$tmp/server.go; \
	if cmp -s bench/server.go $$tmp/server.go; then echo "profile: bench/server.go passes no -data-dir to add -pprof beside" >&2; exit 1; fi; \
	printf '{"Replace":{"%s":"%s"}}\n' "$$PWD/bench/server.go" "$$tmp/server.go" > $$tmp/overlay.json; \
	(cd bench && $(GO) build -overlay $$tmp/overlay.json -o out/bench-pprof .); \
	(cd bench && exec ./out/bench-pprof --workload $(WORKLOAD) --seconds 60) > $$tmp/run.txt & pid=$$!; \
	i=0; while kill -0 $$pid 2>/dev/null; do \
	  at=$$(date +%s.%N); \
	  if curl -sf -o $$tmp/part-$$i.prof "http://127.0.0.1:$(PPROF_PORT)/debug/pprof/profile?seconds=2"; \
	  then echo "$$at $$tmp/part-$$i.prof" >> $$tmp/parts; i=$$((i+1)); else sleep 0.1; fi; \
	done; \
	status=0; wait $$pid || status=$$?; pid=; cat $$tmp/run.txt; test $$status = 0; \
	setup=$$(sed -n 's/.*"setup_s":\([0-9][0-9.e+-]*\).*/\1/p' $$tmp/run.txt | head -n 1); \
	parts=$$(awk -v setup="$$setup" 'NR == 1 { t0 = $$1 } $$1 >= t0 + setup { print $$2 }' $$tmp/parts); \
	if [ -z "$$parts" ]; then echo "profile: no part started after set-up" >&2; exit 1; fi; \
	$(GO) tool pprof -proto $$parts > bench/out/cpu-$(WORKLOAD).pprof 2>/dev/null; \
	$(GO) tool pprof -top -cum -nodecount=60 bench/out/cpu-$(WORKLOAD).pprof

# Race-check the concurrent layers: the lock-free query engine, the fleet
# store (first trains and extends beside readers, WAL/checkpoint durability, chaos tests),
# the HTTP service, the fleet index (its slot table and cells are shared by
# every writer and reader), the fault-injection helpers, the
# training pipeline (serial, many at once), the TPT (read by concurrent queries; its
# reference-tree equivalence tests and fuzz seeds run here too), the pattern package
# (the incremental miner's batch-equivalence tests and fuzz seeds, the
# decoders' hostile-input tests), and the motion fit, whose QR scratch is
# pooled across every object refitting at once.
race:
	$(GO) test -race ./internal/motion/... ./internal/linalg/... ./internal/hpa/... ./internal/tpt/... ./internal/pattern/... ./internal/evalq/... ./internal/markov/... ./internal/spatial/... ./store/... ./serve/... ./internal/core/... ./internal/faultinject/...

# Crash-safety suite under the race detector: kill/restart recovery, torn
# WAL tails, injected WAL/snapshot/train faults, snapshot robustness, the
# degraded read-only state machine, and the HTTP admission/shedding layer.
chaos:
	$(GO) test -race -run 'Chaos|WAL|Train|Durable|Snapshot|Save|Load|NonFinite|Fail|Panic|Join|Shard|Replay|Delay|Checkpoint|Golden|Retired|Segment|Manifest|Orphan|Incremental' -count=1 ./store/... ./internal/faultinject/...
	$(GO) test -race -run 'Admission|Degraded|Subscriber' -count=1 ./serve/...

vet:
	$(GO) vet ./...

# Quick-mode benchmark per paper figure plus the micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# Query-path benchmarks only: FQP/BQP micro-benches with allocation counts
# (BQP/near: a live consequence offset inside the base window; BQP/far: the
# nearest one 20+ steps from the query offset, the case the widening loop
# used to pay for per step). Throughput and latency under load are the
# harness's point_predict workload (go run -C bench . --workload point_predict).
bench-query:
	$(GO) test -bench='BenchmarkPredict(FQP|BQP)$$' -benchmem -run '^$$' .

# What the hot endpoints cost in-process, request bytes to answer bytes,
# with allocations: the wire codec's own number beside the harness's. A
# point and a batch predict (eight horizons, k = 3) against 25 trained
# objects; one single observe, a fleet tick (100 objects × 1 point) and a
# set-up request (25 objects × 630 points) against an untrained store.
# DESIGN.md's "The wire codec" quotes them.
bench-serve:
	$(GO) test -bench='BenchmarkServe' -benchmem -run '^$$' ./serve/

# Ingest-path benchmarks only: ObserveBatch under concurrent writers in
# sync/nosync/nosync-index modes, with fsyncs-per-op reported, and one
# observe of a trained object with the fleet index on and every bucket read
# (the per-point index refresh; buckets=none reads none), and the fleet
# index's own write: one object's six entries set
# in a 5 600-object index on 200-unit cells, with re-bins per op.
# Group-commit depth and fsyncs per record under load are the harness's
# ingest_tick workload (store.wal.records_per_batch,
# store.wal.fsyncs_per_record).
bench-ingest:
	$(GO) test -bench='BenchmarkObserveParallel|BenchmarkIndexRefresh' -benchmem -run '^$$' ./store/
	$(GO) test -bench='BenchmarkUpdate' -benchmem -run '^$$' ./internal/spatial/

# What one fleet-index refresh is made of, each piece with allocations: the
# whole refresh through the store (one observe of a trained object: fold,
# score, one PredictBatch over the six index horizons, each read once
# before the timer starts), for one Bike object
# and for the harness's mix (two objects per datagen kind), the harness's
# batch predict over that mix (eight horizons, k = 3), one BQP near and far
# from a live consequence offset, one self-training RMF fit, and the motion
# path's six horizons answered a Predict each against one walk of the
# recurrence. DESIGN.md's "What one index refresh costs" quotes them.
bench-refresh:
	$(GO) test -bench='BenchmarkIndexRefresh|BenchmarkPredictBatchFleet' -benchmem -run '^$$' ./store/
	$(GO) test -bench='BenchmarkPredictBQP$$|BenchmarkRMFFit$$' -benchmem -run '^$$' .
	$(GO) test -bench='BenchmarkRMFWalk' -benchmem -run '^$$' ./internal/motion/

# Online prequential accuracy: test-then-train replay of each dataset
# through a live store, hybrid pattern paths vs motion fallback per
# horizon. Regenerates BENCH_eval.json.
bench-eval:
	$(GO) run ./cmd/hpmbench -experiment eval -json

# Three-way ensemble accuracy: pattern vs markov vs motion per horizon, on
# every dataset. Regenerates BENCH_markov.json.
bench-markov:
	$(GO) run ./cmd/hpmbench -experiment markov -json

# Model-maintenance cost: full batch retrain vs incremental Extend as
# history grows, with the accuracy divergence between the two. Regenerates
# BENCH_retrain.json.
bench-retrain:
	$(GO) run ./cmd/hpmbench -experiment retrain -json

# Fleet-wide predictive queries: one range or kNN query answered from the
# fleet index against the brute-force scan it is checked against, at 1 000
# and 10 000 objects (50 trained Car objects, the rest random walks; every
# bucket built first). What index maintenance adds to an observe is
# BenchmarkObserveParallel's nosync-index against nosync (make
# bench-ingest). DESIGN.md's "Benchmark methodology for the fleet index and
# checkpoints" quotes them beside the experiment's last numbers.
bench-fleet:
	$(GO) test -bench='BenchmarkFleetQuery' -run '^$$' ./store/

# Persistence cost: the checkpoint pause of a 5 000-object fleet with every
# shard dirty, one object dirty (O(dirty): one shard re-encodes) and
# nothing dirty (a WAL reclaim), with objects/op and shards/op re-encoded.
# What a restart costs is BenchmarkOpen (an untrained fleet's decode and
# replay plumbing; trained: clean and recovering Open of 64 trained
# objects, each tree laid out from its saved shape; B/op and the live heap
# of one opened store; -cpu 1,2 is serial against parallel recovery),
# BenchmarkLoadFleet (what Open pays per trained object: one model of each
# datagen kind at the harness fleet's shape decoded from its bytes, with
# its rules, stream bytes and B/op) and BenchmarkBulkLoad (what Train pays
# and Open does not: one pattern tree sorted into place at the fleet's
# shape, 1 500 to 100 000 items).
bench-recovery:
	$(GO) test -bench='BenchmarkCheckpoint|BenchmarkOpen' -benchmem -run '^$$' ./store/
	$(GO) test -bench='BenchmarkLoadFleet' -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench='BenchmarkBulkLoad' -benchmem -run '^$$' ./internal/tpt/

# What mining and incremental state cost at the harness fleet's shape
# (period 60, ten periods trained, the four datagen kinds): one mining run
# (what every Train pays for its rules), one seeding of the delta-Apriori
# miner (what the first Extend after a load pays, and a crash recovery pays
# per object whose WAL tail crosses a period boundary) and one steady-state
# Extend, with allocations — plain, and served: each Extend followed, on
# the clock, by the batch predict one index refresh makes (the six index
# horizons, k = 1), which rebuilds the ranked lists the Extend dropped; and
# minted: the seventh period, which mints regions from buffered outliers
# and replays their visitors' chains through the miner.
# DESIGN.md's "What one miner costs", "One walk mines and seeds", "Rule
# updates write in place" and "Building and keeping the lists" quote them.
bench-extend:
	$(GO) test -bench='BenchmarkMine|BenchmarkSeedMiner|BenchmarkExtendFleet' -benchmem -run '^$$' ./internal/core/

# What one first train costs at the harness fleet's shape (period 60, ten
# periods, one object of each datagen kind): DBSCAN per offset, the mining
# walk, the tree's bulk load and the chain's fold, with allocations; and
# DBSCAN alone at the training shape (ten points, eps 30, MinPts 4) beside
# its thousand-point grid. DESIGN.md's "What a first train costs" quotes
# them.
bench-train:
	$(GO) test -bench='BenchmarkTrainFleet' -benchmem -run '^$$' ./internal/core/
	$(GO) test -bench='BenchmarkDBSCAN' -benchmem -run '^$$' ./internal/cluster/
