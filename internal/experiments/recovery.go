package experiments

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hpm"
	"hpm/store"
)

func init() {
	register("recovery",
		"Checkpoint cost at 1k/10k/100k objects: incremental O(dirty) checkpoints vs full rewrites vs clean no-ops", recovery)
}

// recoveryShards is the store's shard count (a constant of its on-disk
// format), the dirty-shard sweep's denominator.
const recoveryShards = 64

// recoveryDirtyShards is the incremental sweep: how many of the 64 shards
// are dirtied between checkpoints. 64 = every shard = the cost of a full
// rewrite; 1 is the floor an incremental checkpoint can pay.
var recoveryDirtyShards = []int{1, 3, 16, recoveryShards}

// recovery measures the persistence layer the sharded snapshot format
// exists for:
//
//   - checkpoint pause vs dirty shards: after a full checkpoint, dirty k
//     of the 64 shards and checkpoint again. The incremental engine
//     rewrites only those shards' segment files and chains the rest from
//     the previous epoch, so both the pause and the objects re-encoded
//     scale with k, not the fleet (the k=64 point is the full-rewrite
//     cost). A clean fleet checkpoints as a pure WAL reclaim.
//
// The result is algorithmic and shows at any core count. What a restart
// costs once objects carry models is the harness's restart workload
// (bench/) and BenchmarkOpen/trained (store/).
//
// Training is disabled throughout so the figures time persistence, not
// model fitting; ids are dirtied shard-locally (one object per target
// shard) because the dirty set's granularity is the shard.
func recovery(o Options) []Figure {
	o = o.withDefaults()
	fleets := []int{1000, 10000, 100000}
	rounds := 5 // observation rounds per object during the build (4 pts each)
	if o.Quick {
		fleets = []int{200, 1000}
		rounds = 2
	}

	fullS := Series{Name: "full rewrite"}
	noopS := Series{Name: "clean no-op"}
	var pauseS, objsS []Series

	for _, n := range fleets {
		dir, err := os.MkdirTemp("", "hpm-recovery-*")
		if err != nil {
			panic(fmt.Sprintf("experiments: tempdir: %v", err))
		}
		st := recoveryOpen(dir)
		ids := recoveryIngest(st, n, rounds)

		// First checkpoint writes every shard: the full-rewrite baseline.
		fullS.X = append(fullS.X, float64(n))
		fullS.Y = append(fullS.Y, timeCheckpoint(st))
		// Untouched fleet: the checkpoint reclaims the (empty) WAL and
		// rewrites nothing.
		noopS.X = append(noopS.X, float64(n))
		noopS.Y = append(noopS.Y, timeCheckpoint(st))

		// Incremental sweep: dirty exactly k shards, checkpoint, repeat.
		reps := shardReps(ids)
		pause := Series{Name: fmt.Sprintf("N=%d", n)}
		objs := Series{Name: fmt.Sprintf("N=%d", n)}
		for _, k := range recoveryDirtyShards {
			dirtied := 0
			for shard := 0; shard < recoveryShards && dirtied < k; shard++ {
				id, ok := reps[shard]
				if !ok {
					continue // no object hashes there (tiny fleets)
				}
				if err := st.ObserveBatch(id, []hpm.Point{hpm.Pt(1, 1)}); err != nil {
					panic(fmt.Sprintf("experiments: dirty observe: %v", err))
				}
				dirtied++
			}
			x := 100 * float64(k) / recoveryShards
			pause.X = append(pause.X, x)
			pause.Y = append(pause.Y, timeCheckpoint(st))
			info := st.Health().LastCheckpoint
			objs.X = append(objs.X, x)
			objs.Y = append(objs.Y, float64(info.Objects))
		}
		pauseS = append(pauseS, pause)
		objsS = append(objsS, objs)
		if err := st.Close(); err != nil {
			panic(fmt.Sprintf("experiments: close: %v", err))
		}
		os.RemoveAll(dir)
	}

	suffix := fmt.Sprintf(" — %d shards, GOMAXPROCS=%d", recoveryShards, runtime.GOMAXPROCS(0))
	return []Figure{
		{
			ID:     "recovery-checkpoint-pause",
			Title:  "Incremental Checkpoint Pause vs Dirty Shards" + suffix,
			XLabel: "% of shards dirty",
			YLabel: "checkpoint ms",
			Series: pauseS,
		},
		{
			ID:     "recovery-checkpoint-objects",
			Title:  "Objects Re-encoded per Checkpoint vs Dirty Shards (O(dirty), not O(fleet))" + suffix,
			XLabel: "% of shards dirty",
			YLabel: "objects written",
			Series: objsS,
		},
		{
			ID:     "recovery-checkpoint-full",
			Title:  "Full Rewrite vs Clean No-op Checkpoint" + suffix,
			XLabel: "objects",
			YLabel: "checkpoint ms",
			Series: []Series{fullS, noopS},
		},
	}
}

// recoveryOpen opens a durable store tuned for the persistence figures:
// training disabled, WAL fsyncs off (the figures time encode + file
// writes, not the disk's fsync rate).
func recoveryOpen(dir string) *store.Store {
	st, err := store.Open(dir, store.Options{
		Config:          hpm.Config{Period: 300},
		MinTrainPeriods: 1 << 20,
		WALNoSync:       true,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: open: %v", err))
	}
	return st
}

// recoveryIngest populates n objects with rounds fleet batches of 4
// points each, returning the ids.
func recoveryIngest(st *store.Store, n, rounds int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%06d", i)
	}
	const batch = 2048
	for r := 0; r < rounds; r++ {
		pts := []hpm.Point{
			hpm.Pt(float64(r), 0), hpm.Pt(float64(r), 1),
			hpm.Pt(float64(r), 2), hpm.Pt(float64(r), 3),
		}
		for off := 0; off < n; off += batch {
			end := off + batch
			if end > n {
				end = n
			}
			obs := make([]store.Observation, 0, end-off)
			for _, id := range ids[off:end] {
				obs = append(obs, store.Observation{ID: id, Points: pts})
			}
			if err := st.ObserveAll(obs); err != nil {
				panic(fmt.Sprintf("experiments: ingest: %v", err))
			}
		}
	}
	return ids
}

// shardReps maps each shard to one resident id, so the sweep can dirty an
// exact number of shards. The hash mirrors the store's id-to-shard FNV-1a
// (the shard is the granularity of the dirty set, so the experiment must
// aim at shards, not ids).
func shardReps(ids []string) map[int]string {
	reps := make(map[int]string, recoveryShards)
	for _, id := range ids {
		h := uint32(2166136261)
		for i := 0; i < len(id); i++ {
			h ^= uint32(id[i])
			h *= 16777619
		}
		shard := int(h & (recoveryShards - 1))
		if _, ok := reps[shard]; !ok {
			reps[shard] = id
		}
	}
	return reps
}

// timeCheckpoint runs one checkpoint and returns its wall-clock in ms.
func timeCheckpoint(st *store.Store) float64 {
	start := time.Now()
	if err := st.Checkpoint(); err != nil {
		panic(fmt.Sprintf("experiments: checkpoint: %v", err))
	}
	return float64(time.Since(start).Microseconds()) / 1000
}
