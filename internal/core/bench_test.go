package core

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/markov"
	"hpm/internal/pattern"
	"hpm/internal/spatial"
	"hpm/internal/trajectory"
)

// The miner benchmarks run at the shape of the loopback harness's
// trained fleet (bench/fleet.go): period 60, ten periods trained, one
// object of each datagen kind, every parameter at its default.
const (
	fleetPeriod       = 60
	fleetTrainPeriods = 10
	// Periods a model absorbs before it is reset. Over the first six no
	// kind mints a region; the seventh mints 47 for the Bike object (4 144
	// rules inserted by one Extend), a cost of the tree's insert and the
	// minted replay that BenchmarkExtendFleet's minted variant times alone.
	fleetExtendDays = 6
)

// fleetSubs generates n periods of one kind's object at the fleet's period,
// from the seed the harness gives it.
func fleetSubs(tb testing.TB, kind datagen.Kind, period, n int) []trajectory.SubTrajectory {
	tb.Helper()
	subs, err := datagen.Generate(datagen.Spec{
		Kind:            kind,
		Period:          period,
		SubTrajectories: n,
		Seed:            1_000_003 + int64(kind),
	}).Decompose(period)
	if err != nil {
		tb.Fatal(err)
	}
	return subs
}

// fleetModel trains one fleet-shaped object and returns its saved stream
// with the fleetExtendDays+1 days that follow the training cut.
func fleetModel(b *testing.B, kind datagen.Kind) ([]byte, []trajectory.SubTrajectory) {
	b.Helper()
	subs := fleetSubs(b, kind, fleetPeriod, fleetTrainPeriods+fleetExtendDays+1)
	m, err := TrainSubTrajectories(subs[:fleetTrainPeriods], Params{Period: fleetPeriod})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes(), subs[fleetTrainPeriods:]
}

func loadFleetModel(b *testing.B, stream []byte) *Model {
	b.Helper()
	m, err := Load(bytes.NewReader(stream))
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// trainSink keeps BenchmarkTrainFleet's result live.
var trainSink *Model

// BenchmarkTrainFleet times one first train at the harness fleet's shape:
// DBSCAN per offset, the mining walk, the tree's bulk load and the chain's
// fold over ten periods of one object of each kind.
func BenchmarkTrainFleet(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			subs := fleetSubs(b, kind, fleetPeriod, fleetTrainPeriods)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := TrainSubTrajectories(subs, Params{Period: fleetPeriod})
				if err != nil {
					b.Fatal(err)
				}
				trainSink = m
			}
			b.ReportMetric(float64(trainSink.NumPatterns()), "rules")
		})
	}
}

// loadSink keeps BenchmarkLoadFleet's result live.
var loadSink *Model

// BenchmarkLoadFleet times what Open pays per trained object of the
// harness fleet: one decode of a fleet-shaped model's stream, one object of
// each kind — the region table, the rule table filled in place, and the
// tree laid out from its saved shape — decoded from bytes already in
// memory, as a segment's records are. tree-bytes is what the loaded tree's
// slabs hold (Model.TreeBytes).
func BenchmarkLoadFleet(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, _ := fleetModel(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, _, err := Decode(stream, 0)
				if err != nil {
					b.Fatal(err)
				}
				loadSink = m
			}
			b.ReportMetric(float64(loadSink.NumPatterns()), "rules")
			b.ReportMetric(float64(len(stream)), "stream-bytes")
			b.ReportMetric(float64(loadSink.TreeBytes()), "tree-bytes")
		})
	}
}

// minedSink keeps BenchmarkMine's result live.
var minedSink *pattern.Table

// BenchmarkMine times what every Train pays for its rules: one walk of a
// fleet-shaped object's region table.
func BenchmarkMine(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, _ := fleetModel(b, kind)
			m := loadFleetModel(b, stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				minedSink, _ = pattern.MineWithStats(m.regions, m.params.Mining)
			}
			b.ReportMetric(float64(minedSink.Len()), "rules")
		})
	}
}

// BenchmarkSeedMiner times what the first Extend after a load pays before
// it absorbs anything: seeding a fresh miner by the walk and reconciling
// the engine's live set against it (a crash recovery does it once per
// object whose WAL tail crosses a period boundary).
func BenchmarkSeedMiner(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, _ := fleetModel(b, kind)
			m := loadFleetModel(b, stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.miner = nil
				m.seedMiner()
			}
			b.ReportMetric(float64(m.miner.TrackedItemsets()), "itemsets")
			b.ReportMetric(float64(m.miner.Bytes())/float64(m.miner.TrackedItemsets()), "B/itemset")
		})
	}
}

// BenchmarkExtendFleet times one steady-state Extend: a seeded model
// absorbing one more period. The model is reloaded and re-seeded off the
// clock every fleetExtendDays periods, so history stays at the fleet's
// ten-odd periods however long the benchmark runs. The plain variant never
// queries. The served variant also answers, on the clock, one PredictBatch
// at the fleet index's six horizons (k = 1) after every Extend, the way a
// served object's index refresh does: it re-ranks the ranked lists the
// Extend marked stale that its backward queries read. The minted variant times
// the period the others reset before, the seventh, which mints regions
// from the outliers the first six buffered (47 for Bike), replays their
// visitors' chains through the miner and inserts what they promote; the
// six before it run off the clock. regions and inserted are what it did.
func BenchmarkExtendFleet(b *testing.B) {
	for _, variant := range []string{"", "served/", "minted/"} {
		for _, kind := range datagen.Kinds {
			b.Run(variant+fmt.Sprint(kind), func(b *testing.B) {
				stream, days := fleetModel(b, kind)
				if variant == "minted/" {
					benchmarkMinted(b, stream, days)
					return
				}
				days = days[:fleetExtendDays]
				recent := servedRecent(b, kind)
				now := recent[len(recent)-1].T
				tqs := make([]int, len(spatial.DefaultHorizons))
				for i, h := range spatial.DefaultHorizons {
					tqs[i] = now + h
				}
				var m *Model
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%len(days) == 0 {
						b.StopTimer()
						m = loadFleetModel(b, stream)
						m.seedMiner()
						b.StartTimer()
					}
					if _, err := m.Extend(days[i%len(days) : i%len(days)+1]); err != nil {
						b.Fatal(err)
					}
					if variant == "served/" {
						if _, err := m.PredictBatch(recent, tqs, 1); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// benchmarkMinted is BenchmarkExtendFleet's minted variant: each
// iteration loads and seeds the model and extends it by the first
// len(days)-1 days, one at a time, off the clock, then collects what that
// set-up left behind, still off the clock, and times the last.
func benchmarkMinted(b *testing.B, stream []byte, days []trajectory.SubTrajectory) {
	var res ExtendResult
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := loadFleetModel(b, stream)
		m.seedMiner()
		for d := range days[:len(days)-1] {
			if _, err := m.Extend(days[d : d+1]); err != nil {
				b.Fatal(err)
			}
		}
		runtime.GC()
		b.StartTimer()
		var err error
		if res, err = m.Extend(days[len(days)-1:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.NewRegions), "regions")
	b.ReportMetric(float64(res.NewPatterns), "inserted")
}

// servedRecent is the recent window an index refresh reads at the training
// cut: the last ten points of the last trained period.
func servedRecent(b *testing.B, kind datagen.Kind) []trajectory.TimedPoint {
	last := fleetSubs(b, kind, fleetPeriod, fleetTrainPeriods)[fleetTrainPeriods-1]
	recent := make([]trajectory.TimedPoint, 10)
	for i := range recent {
		t := fleetPeriod - len(recent) + i
		recent[i] = trajectory.TimedPoint{T: (fleetTrainPeriods-1)*fleetPeriod + t, Loc: last.Points[t]}
	}
	return recent
}

// chainSink keeps BenchmarkChainFleet's results live.
var chainSink struct {
	answered int
	blob     []byte
	chain    *markov.Chain
}

// BenchmarkChainFleet times the Markov chain's four costs at the harness
// fleet's shape, one object of each kind: the fold of the ten trained
// periods (RebuildMarkov, what a first install and every Extend pay), the
// one walk that answers the fleet index's six horizons from the training
// cut (what an index refresh pays), and the chain's encode and decode (what a
// checkpoint and an Open pay per object).
func BenchmarkChainFleet(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, _ := fleetModel(b, kind)
			m := loadFleetModel(b, stream)
			var pts []geom.Point
			for _, sub := range fleetSubs(b, kind, fleetPeriod, fleetTrainPeriods) {
				pts = append(pts, sub.Points...)
			}
			recent := servedRecent(b, kind)
			now := recent[len(recent)-1].T
			b.Run("fold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.RebuildMarkov(0, pts)
				}
			})
			b.Run("walk", func(b *testing.B) {
				m.RebuildMarkov(0, pts) // a loaded model's chain is empty until folded
				tqs := make([]int, len(spatial.DefaultHorizons))
				for i, h := range spatial.DefaultHorizons {
					tqs[i] = now + h
				}
				out := make([]hpa.Prediction, len(tqs))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					clear(out)
					m.markovAnswer(recent, tqs, out)
				}
				chainSink.answered = 0
				for _, p := range out {
					if p != (hpa.Prediction{}) {
						chainSink.answered++
					}
				}
				b.ReportMetric(float64(chainSink.answered), "answers")
			})
			b.Run("encode", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					chainSink.blob = m.EncodeMarkov()
				}
				b.ReportMetric(float64(len(chainSink.blob)), "bytes")
			})
			b.Run("decode", func(b *testing.B) {
				blob := m.EncodeMarkov()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c, err := markov.Decode(blob)
					if err != nil {
						b.Fatal(err)
					}
					chainSink.chain = c
				}
			})
		})
	}
}
