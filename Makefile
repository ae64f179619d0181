GO ?= go

.PHONY: build test race vet bench bench-query bench-ingest bench-refresh bench-eval bench-markov bench-retrain bench-fleet bench-recovery bench-extend chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the concurrent layers: the lock-free query engine, the fleet
# store (background retrains, WAL/checkpoint durability, chaos tests),
# the HTTP service, the fault-injection helpers, the training pipeline
# (serial, many at once), the TPT (read by concurrent queries; its
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
	$(GO) test -race -run 'Chaos|WAL|Train|Durable|Snapshot|Save|Load|NonFinite|Fail|Panic|Join|Shard|Remove|Valve|Delay|Checkpoint|Golden|Retired|Segment|Manifest|Orphan|Incremental' -count=1 ./store/... ./internal/faultinject/...
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

# Ingest-path benchmarks only: ObserveBatch under concurrent writers in
# sync/nosync/nosync-index modes, with fsyncs-per-op reported, and one
# observe of a trained object with the fleet index on (the per-point index
# refresh). Group-commit depth and fsyncs per record under load are the
# harness's ingest_tick workload (store.wal.records_per_batch,
# store.wal.fsyncs_per_record).
bench-ingest:
	$(GO) test -bench='BenchmarkObserveParallel|BenchmarkIndexRefresh' -benchmem -run '^$$' ./store/

# What one fleet-index refresh is made of, each piece with allocations: the
# whole refresh through the store (one observe of a trained object: fold,
# score, one PredictBatch over the six index horizons), one BQP near and far
# from a live consequence offset, one self-training RMF fit, and the motion
# path's six horizons answered a Predict each against one walk of the
# recurrence. DESIGN.md's "What one index refresh costs" quotes them.
bench-refresh:
	$(GO) test -bench='BenchmarkIndexRefresh' -benchmem -run '^$$' ./store/
	$(GO) test -bench='BenchmarkPredictBQP$$|BenchmarkRMFFit$$' -benchmem -run '^$$' .
	$(GO) test -bench='BenchmarkRMFWalk' -benchmem -run '^$$' ./internal/motion/

# Online prequential accuracy: test-then-train replay of each dataset
# through a live store, hybrid pattern paths vs motion fallback per
# horizon. Regenerates BENCH_eval.json.
bench-eval:
	$(GO) run ./cmd/hpmbench -experiment eval -json

# Three-way ensemble accuracy: pattern vs markov vs motion per horizon,
# plus measured adaptive routing against the best single path, on every
# dataset. Regenerates BENCH_markov.json.
bench-markov:
	$(GO) run ./cmd/hpmbench -experiment markov -json

# Model-maintenance cost: full batch retrain vs incremental Extend as
# history grows, with the accuracy divergence between the two. Regenerates
# BENCH_retrain.json.
bench-retrain:
	$(GO) run ./cmd/hpmbench -experiment retrain -json

# Fleet-wide predictive queries: indexed vs brute-force range/kNN at
# 1k/10k/100k objects, the index==scan identity proof, SSE push
# throughput, and observe-path maintenance overhead. Regenerates
# BENCH_fleet_query.json.
bench-fleet:
	$(GO) run ./cmd/hpmbench -experiment fleetquery -json

# Persistence cost: incremental checkpoint pause and objects re-encoded
# vs dirty shards (O(dirty) vs O(fleet)), full-rewrite and clean no-op
# baselines at 1k/10k/100k objects. Regenerates BENCH_recovery.json. What a
# restart costs is BenchmarkOpen (an untrained fleet's decode and replay
# plumbing; trained: clean and recovering Open of 64 trained objects, each
# tree laid out from its saved shape; B/op and the live heap of one opened
# store; -cpu 1,2 is serial against parallel recovery) and BenchmarkBulkLoad
# (what Train pays and Open does not: one pattern tree sorted into place at
# the fleet's shape, 1 500 to 100 000 items).
bench-recovery:
	$(GO) run ./cmd/hpmbench -experiment recovery -json
	$(GO) test -bench='BenchmarkOpen' -benchmem -run '^$$' ./store/
	$(GO) test -bench='BenchmarkBulkLoad' -benchmem -run '^$$' ./internal/tpt/

# What incremental state costs at the harness fleet's shape (period 60, ten
# periods trained, the four datagen kinds): one seeding of the delta-Apriori
# miner (what the first Extend after a load pays, and a crash recovery pays
# per object whose WAL tail crosses a period boundary) and one steady-state
# Extend, with allocations. DESIGN.md's "What one miner costs" quotes both.
bench-extend:
	$(GO) test -bench='BenchmarkSeedMiner|BenchmarkExtendFleet' -benchmem -run '^$$' ./internal/core/
