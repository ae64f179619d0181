package store

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"hpm"
	"hpm/internal/datagen"
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
//   - nosync-index: nosync plus the fleet spatial index with every
//     horizon bucket read once, so the gap to nosync is the incremental
//     index maintenance each acknowledged observe pays (budgeted at a few
//     percent).
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
				if m.index != nil {
					readEveryBucket(b, s)
				}
				before := s.FleetStats().WAL
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
				after := s.FleetStats().WAL
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
// size, with what each checkpoint encoded (Health().LastCheckpoint) as
// objects/op and shards/op. "full" dirties every shard before each
// checkpoint (all 64 rewrite, the worst case); "incremental" dirties one
// object, so only that object's shard re-encodes and the rest chain from
// the previous epoch — the O(dirty) contract as a number; "clean" dirties
// nothing, so the checkpoint only reclaims the WAL.
func BenchmarkCheckpoint(b *testing.B) {
	const fleet = 5000
	pts := walPoints(4, 1)
	for _, mode := range []string{"full", "incremental", "clean"} {
		b.Run(fmt.Sprintf("%s/objects=%d", mode, fleet), func(b *testing.B) {
			s := benchFleet(b, b.TempDir(), fleet)
			defer s.Close()
			if err := s.Checkpoint(); err != nil { // baseline epoch every run chains from
				b.Fatal(err)
			}
			var objects, shards int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				switch mode {
				case "full":
					for sh := range s.shards {
						s.shards[sh].dirty.Store(true)
					}
				case "incremental":
					if err := s.ObserveBatch("obj-000000", pts); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				info := s.Health().LastCheckpoint
				objects += info.Objects
				shards += info.Shards
				b.StartTimer()
			}
			b.ReportMetric(float64(objects)/float64(b.N), "objects/op")
			b.ReportMetric(float64(shards)/float64(b.N), "shards/op")
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

// readEveryBucket queries each of the fleet index's horizon buckets once, so
// every later refresh maintains all of them: a bucket no query has read
// costs a refresh nothing.
func readEveryBucket(b *testing.B, s *Store) {
	b.Helper()
	for _, h := range s.fleetHorizons() {
		if _, err := queryNearest(s, hpm.Pt(0, 0), 1, h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexRefresh measures what one acknowledged observe of a trained
// object costs with the fleet index on, every bucket read, and no WAL: the
// Markov fold, the evaluator, and — the bulk of it — the refresh of the
// object's predicted positions at every index horizon (one PredictBatch: FQP below the
// distant-time threshold, BQP beyond it, the fallback fit where neither
// answers). The update policy is parked for the run — the model counts as
// having seen every period there will be — so no period boundary lands an
// Extend in an arbitrary iteration and every iteration sees the same model.
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
	obj.modeled = math.MaxInt // see above; nothing else touches the object yet
	readEveryBucket(b, s)
	stream := tr.Slice(trained*period, tr.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.ObserveBatch("bike", []hpm.Point{stream[i%len(stream)]}); err != nil {
			b.Fatal(err)
		}
	}
}

// fleetObject is one object of harnessFleet: its id and the points it has
// not been fed yet.
type fleetObject struct {
	id     string
	stream []hpm.Point
}

// harnessFleet is a store shaped like the loopback harness's (period 60,
// min-train 4, fleet index with 200-unit cells): two trained objects per
// datagen kind, each fed ten periods and a phase-staggered part of the
// eleventh, as the harness's setup cut does. Unless extend is set, its
// update policy is parked (see BenchmarkIndexRefresh) so every iteration
// sees the same models.
func harnessFleet(b *testing.B, extend bool) (*Store, []fleetObject) {
	b.Helper()
	s, err := New(Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 4,
		FleetIndex:      &spatial.Config{CellSize: 200},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	const trained = 10
	objs := make([]fleetObject, 2*len(datagen.Kinds))
	cuts := make([]int, len(objs))
	for i := range objs {
		tr := datagen.Generate(datagen.Spec{Kind: datagen.Kinds[i%len(datagen.Kinds)], Period: period,
			SubTrajectories: trained + 40, Seed: 1_000_003 + int64(i)})
		cuts[i] = trained*period + (7*i)%period
		objs[i] = fleetObject{id: fmt.Sprintf("t%04d", i), stream: tr.Points()}
		if err := s.ObserveBatch(objs[i].id, objs[i].stream[:cuts[i]]); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	for i := range objs {
		obj, err := s.get(objs[i].id, false)
		if err != nil || obj.predictor == nil {
			b.Fatalf("%s not trained: %v", objs[i].id, err)
		}
		if !extend {
			obj.modeled = math.MaxInt
		}
		objs[i].stream = objs[i].stream[cuts[i]:]
	}
	return s, objs
}

// BenchmarkIndexRefreshFleet is BenchmarkIndexRefresh over harnessFleet's
// mix of kinds, the objects observed in turn: BQP's share of a refresh
// depends on how many patterns a kind's model holds (a Bike model about a
// hundred per consequence offset, an Airplane model next to none).
// buckets=all reads every bucket first; buckets=none reads none, so the
// index holds nothing and each observe is the write path alone — what
// an observe costs while no fleet query has run. extend=on reads every
// bucket and keeps the update policy, so each object crosses a period
// boundary every 60 of its observes and runs an Extend, as on the
// harness's fleet_mixed: the refresh after it re-ranks the ranked lists the
// Extend marked stale (reranks/op), and builds from the tree (builds/op)
// only the offsets BQP reads for the first time.
func BenchmarkIndexRefreshFleet(b *testing.B) {
	for _, leg := range []struct {
		name         string
		read, extend bool
	}{{"buckets=all", true, false}, {"buckets=none", false, false}, {"extend=on", true, true}} {
		b.Run(leg.name, func(b *testing.B) {
			s, objs := harnessFleet(b, leg.extend)
			if leg.read {
				readEveryBucket(b, s)
			}
			before := s.FleetStats().Queries
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o := &objs[i%len(objs)]
				if err := s.ObserveBatch(o.id, []hpm.Point{o.stream[(i/len(objs))%len(o.stream)]}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := s.FleetStats().Queries
			b.ReportMetric(float64(after.RankBuilds-before.RankBuilds)/float64(b.N), "builds/op")
			b.ReportMetric(float64(after.RankReranks-before.RankReranks)/float64(b.N), "reranks/op")
		})
	}
}

// BenchmarkPredictBatchFleet is the harness's batch predict — horizons 2 to
// 100 around the distant-time threshold of 60, k = 3, resolved against the
// object's current time — over harnessFleet's objects in turn. memo=miss
// forgets the object's answers before each call, so every call runs the
// model; memo=hit asks again what the memo already holds.
func BenchmarkPredictBatchFleet(b *testing.B) {
	s, objs := harnessFleet(b, false)
	horizons := []int{2, 5, 10, 20, 40, 60, 80, 100}
	ctx := context.Background()
	for _, miss := range []bool{true, false} {
		b.Run(map[bool]string{true: "memo=miss", false: "memo=hit"}[miss], func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := objs[i%len(objs)].id
				if miss {
					s.ForgetAnswers(id)
				}
				if _, _, err := s.PredictBatchAheadContext(ctx, id, horizons, 3); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFleetQuery prices the fleet index against the brute-force scan
// it is checked against (TestIndexMatchesScanAllDatasets): one range or
// kNN query per op, answered from the index or by ScanRange /
// scanNearest, at 1 000 and 10 000 objects (queryFleet). Rects cover 1 %
// of the extent, k = 10, and horizons cycle {5, 20, 100}; index and scan
// answer the same queries. An indexed range costs what copying its
// ~n/100 matches costs; a scan predicts every object per query.
func BenchmarkFleetQuery(b *testing.B) {
	fleets := map[int]*Store{}
	defer func() {
		for _, s := range fleets {
			s.Close()
		}
	}()
	horizons := []int{5, 20, 100}
	rng := rand.New(rand.NewSource(1))
	ext := datagen.Extent
	rects := make([]hpm.Rect, 64)
	pts := make([]hpm.Point, len(rects))
	hs := make([]int, len(rects))
	for i := range rects {
		hs[i] = horizons[i%len(horizons)]
		w, h := ext.Width()*0.10, ext.Height()*0.10
		x := ext.Min.X + rng.Float64()*(ext.Width()-w)
		y := ext.Min.Y + rng.Float64()*(ext.Height()-h)
		rects[i] = hpm.Rect{Min: hpm.Pt(x, y), Max: hpm.Pt(x+w, y+h)}
		pts[i] = hpm.Pt(ext.Min.X+rng.Float64()*ext.Width(), ext.Min.Y+rng.Float64()*ext.Height())
	}
	type query func(s *Store, i int) ([]spatial.Result, error)
	ops := []struct {
		name        string
		index, scan query
	}{
		{"range",
			func(s *Store, i int) ([]spatial.Result, error) { return queryRange(s, rects[i], hs[i]) },
			func(s *Store, i int) ([]spatial.Result, error) { return s.ScanRange(rects[i], hs[i]) }},
		{"knn",
			func(s *Store, i int) ([]spatial.Result, error) { return queryNearest(s, pts[i], 10, hs[i]) },
			func(s *Store, i int) ([]spatial.Result, error) { return s.scanNearest(pts[i], 10, hs[i]) }},
	}
	for _, op := range ops {
		b.Run(op.name, func(b *testing.B) {
			for _, n := range []int{1000, 10000} {
				b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
					s := fleets[n]
					if s == nil {
						s = queryFleet(b, n)
						fleets[n] = s
					}
					// One query per horizon answered both ways first, so
					// no number here is bought with a wrong answer.
					for i := range horizons {
						got, err1 := op.index(s, i)
						want, err2 := op.scan(s, i)
						if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
							b.Fatalf("query %d: index %v (%v), scan %v (%v)", i, got, err1, want, err2)
						}
					}
					for _, m := range []struct {
						name string
						q    query
					}{{"index", op.index}, {"scan", op.scan}} {
						b.Run(m.name, func(b *testing.B) {
							for i := 0; i < b.N; i++ {
								if _, err := m.q(s, i%len(rects)); err != nil {
									b.Fatal(err)
								}
							}
						})
					}
				})
			}
		})
	}
}

// queryFleet builds BenchmarkFleetQuery's in-memory fleet of n objects:
// period 60, cells of 200, 50 Car objects observed for five periods (each
// trains inside the observe that completes its fourth), and the rest
// 8-point random walks inside the extent, answered by extrapolation. Every
// bucket is read, so built, before it returns.
func queryFleet(b *testing.B, n int) *Store {
	b.Helper()
	s, err := New(Options{
		Config:          hpm.Config{Period: 60},
		MinTrainPeriods: 4,
		EvalDisabled:    true,
		FleetIndex:      &spatial.Config{CellSize: 200},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	ext := datagen.Extent
	for i := 0; i < n; i++ {
		var pts []hpm.Point
		if i < 50 {
			spec := datagen.DefaultSpec(datagen.Car, int64(i+1))
			spec.Period = 60
			spec.SubTrajectories = 5
			pts = datagen.Generate(spec).Points()
		} else {
			p := hpm.Pt(ext.Min.X+rng.Float64()*ext.Width(), ext.Min.Y+rng.Float64()*ext.Height())
			pts = make([]hpm.Point, 8)
			for j := range pts {
				pts[j] = p
				p = ext.Clamp(hpm.Pt(p.X+rng.NormFloat64()*5, p.Y+rng.NormFloat64()*5))
			}
		}
		if err := s.ObserveBatch(fmt.Sprintf("obj-%06d", i), pts); err != nil {
			b.Fatal(err)
		}
	}
	readEveryBucket(b, s)
	return s
}
