package store

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hpm"
	"hpm/internal/spatial"
)

// BenchmarkObserveParallel measures durable ingest under concurrent
// writers, the workload group commit exists for. Three modes:
//
//   - sync: fsync-per-acknowledgement (the default). With one writer
//     every op pays a full fsync; with several, concurrent appends
//     coalesce into one group write + fsync, so the reported fsyncs/op
//     drops below 1 and throughput climbs past the fsync rate.
//   - nosync: no fsyncs — isolates the in-memory path (shard map, WAL
//     encode, group buffer) from disk latency.
//   - nosync-index: nosync plus the fleet spatial index, so the gap to
//     nosync is the incremental index maintenance each acknowledged
//     observe pays (budgeted at a few percent).
//
// Writers get distinct ids so the benchmark measures fleet ingest, not
// one object's ingestMu serialization.
func BenchmarkObserveParallel(b *testing.B) {
	maxWriters := runtime.GOMAXPROCS(0)
	if maxWriters < 4 {
		// Group commit amortizes fsyncs even on one CPU (the syscall
		// blocks, releasing the P), so sweep past GOMAXPROCS.
		maxWriters = 4
	}
	modes := []struct {
		name   string
		noSync bool
		index  *spatial.Config
	}{
		{"sync", false, nil},
		{"nosync", true, nil},
		{"nosync-index", true, &spatial.Config{CellSize: 50}},
	}
	pts := walPoints(0, 4)
	for _, m := range modes {
		for w := 1; w <= maxWriters; w *= 2 {
			b.Run(fmt.Sprintf("%s/writers=%d", m.name, w), func(b *testing.B) {
				s, err := Open(b.TempDir(), Options{
					Config:          hpm.Config{Period: period},
					MinTrainPeriods: 1 << 20, // never train: measure ingest alone
					WALNoSync:       m.noSync,
					FleetIndex:      m.index,
				})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				before := s.WALStats()
				var next atomic.Int64
				b.ResetTimer()
				var wg sync.WaitGroup
				for i := 0; i < w; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						id := fmt.Sprintf("writer-%d", i)
						for next.Add(1) <= int64(b.N) {
							if err := s.ObserveBatch(id, pts); err != nil {
								b.Error(err)
								return
							}
						}
					}(i)
				}
				wg.Wait()
				b.StopTimer()
				after := s.WALStats()
				b.ReportMetric(float64(after.Fsyncs-before.Fsyncs)/float64(b.N), "fsyncs/op")
				b.ReportMetric(float64(after.Batches-before.Batches)/float64(b.N), "batches/op")
			})
		}
	}
}

// benchFleet opens a durable store with training disabled and fills it
// with n objects of a few points each — enough to make segment encoding
// the dominant checkpoint cost without paying model fits.
func benchFleet(b *testing.B, dir string, n int) *Store {
	b.Helper()
	s, err := Open(dir, Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 1 << 20,
		WALNoSync:       true,
	})
	if err != nil {
		b.Fatal(err)
	}
	pts := walPoints(0, 4)
	const batch = 2048
	for off := 0; off < n; off += batch {
		end := off + batch
		if end > n {
			end = n
		}
		obs := make([]Observation, 0, end-off)
		for i := off; i < end; i++ {
			obs = append(obs, Observation{ID: fmt.Sprintf("obj-%06d", i), Points: pts})
		}
		if err := s.ObserveAll(obs); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkCheckpoint measures the checkpoint pause at a fixed fleet
// size. "full" dirties every object before each checkpoint (every shard
// rewrites, the worst case); "incremental" dirties one object, so
// only that object's shard re-encodes and the rest chain from the
// previous epoch — the O(dirty) contract as a number.
func BenchmarkCheckpoint(b *testing.B) {
	const fleet = 5000
	pts := walPoints(4, 1)
	for _, mode := range []string{"full", "incremental"} {
		b.Run(fmt.Sprintf("%s/objects=%d", mode, fleet), func(b *testing.B) {
			s := benchFleet(b, b.TempDir(), fleet)
			defer s.Close()
			if err := s.Checkpoint(); err != nil { // baseline epoch every run chains from
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if mode == "full" {
					for sh := range s.shards {
						s.shards[sh].dirty.Store(true)
					}
				} else if err := s.ObserveBatch("obj-000000", pts); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen measures start-up latency. The objects=… case opens a
// checkpointed store of untrained tracks with a short WAL tail: it times
// segment decode and replay plumbing and no model at all. The store fans
// recovery out across GOMAXPROCS, so -cpu 1,2 is the serial-vs-parallel
// comparison.
//
// The trained cases are what a fleet's restart costs: 64 objects trained
// from the four datagen kinds, checkpointed, and for trained/recover a
// 20-tick WAL tail on top that carries a quarter of them over a period
// boundary, so recovery re-seeds their miners and extends them. Every
// model's pattern tree is rebuilt by each Open; live-B/open is the heap one
// opened store retains.
func BenchmarkOpen(b *testing.B) {
	const fleet = 5000
	dir := b.TempDir()
	s := benchFleet(b, dir, fleet)
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := s.ObserveBatch("obj-000000", walPoints(4, 1)); err != nil {
		b.Fatal(err)
	}
	crash(s) // leave a WAL tail for replay
	b.Run(fmt.Sprintf("objects=%d", fleet), func(b *testing.B) {
		benchReopen(b, dir, Options{
			Config:          hpm.Config{Period: period},
			MinTrainPeriods: 1 << 20,
			WALNoSync:       true,
		})
	})

	f := newRestartFleet(64, 1)
	for _, mode := range []string{"clean", "recover"} {
		dir := b.TempDir()
		s, err := Open(dir, restartOptions())
		if err != nil {
			b.Fatal(err)
		}
		f.load(b, s)
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if mode == "recover" {
			f.stream(b, s, 0, 20)
		}
		crash(s)
		b.Run("trained/"+mode, func(b *testing.B) { benchReopen(b, dir, restartOptions()) })
	}
}

// benchReopen times Open over dir, leaving the directory as it found it.
func benchReopen(b *testing.B, dir string, opts Options) {
	b.ReportAllocs()
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		if i == b.N-1 {
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.StartTimer()
		}
		re, err := Open(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := re.Flush(); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "live-B/open")
			runtime.KeepAlive(re)
		}
		crash(re) // no checkpoint: keep the on-disk state identical
		// Each Open leaves one fresh empty WAL segment; drop them so
		// the replayed state doesn't grow with b.N.
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		for _, seg := range segs {
			if fi, err := os.Stat(seg); err == nil && fi.Size() == 0 {
				os.Remove(seg)
			}
		}
		b.StartTimer()
	}
}

// BenchmarkIndexRefresh measures what one acknowledged observe of a trained
// object costs with the fleet index on and no WAL: the Markov fold, the
// evaluator, and — the bulk of it — the refresh of the object's predicted
// positions at every index horizon (one PredictBatch: FQP below the
// distant-time threshold, BQP beyond it, the fallback fit where neither
// answers). The update policy is parked for the run, as it is while a
// background train is in flight, so no period boundary lands an Extend in
// an arbitrary iteration and every iteration sees the same model.
func BenchmarkIndexRefresh(b *testing.B) {
	s, err := New(Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 4,
		FleetIndex:      &spatial.Config{CellSize: 200},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const trained = 10
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = trained + 40
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch("bike", tr.Slice(0, trained*period)); err != nil {
		b.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	obj, err := s.get("bike", false)
	if err != nil || obj.predictor == nil {
		b.Fatalf("object not trained: %v", err)
	}
	obj.training = true // see above; nothing else touches the object yet
	stream := tr.Slice(trained*period, tr.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Observe("bike", stream[i%len(stream)]); err != nil {
			b.Fatal(err)
		}
	}
}
