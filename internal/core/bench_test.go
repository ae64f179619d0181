package core

import (
	"bytes"
	"fmt"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/trajectory"
)

// The two miner benchmarks run at the shape of the loopback harness's
// trained fleet (bench/fleet.go): period 60, ten periods trained, one
// object of each datagen kind, every parameter at its default.
const (
	fleetPeriod       = 60
	fleetTrainPeriods = 10
	// Periods a model absorbs before it is reset. Over the first six no
	// kind mints a region; the seventh mints 47 for the Bike object (4 144
	// rules inserted by one Extend), a cost of the tree's insert and not of
	// the re-evaluation this benchmark tracks.
	fleetExtendDays = 6
)

// fleetModel trains one fleet-shaped object and returns its saved stream
// with the days that follow the training cut.
func fleetModel(b *testing.B, kind datagen.Kind) ([]byte, []trajectory.SubTrajectory) {
	b.Helper()
	subs, err := datagen.Generate(datagen.Spec{
		Kind:            kind,
		Period:          fleetPeriod,
		SubTrajectories: fleetTrainPeriods + fleetExtendDays,
		Seed:            1_000_003 + int64(kind),
	}).Decompose(fleetPeriod)
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkSeedMiner times what the first Extend after a load pays before
// it absorbs anything: replaying every live chain into a fresh miner and
// reconciling the engine's live set against it (a crash recovery does it
// once per object whose WAL tail crosses a period boundary).
func BenchmarkSeedMiner(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, _ := fleetModel(b, kind)
			m := loadFleetModel(b, stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.miner = nil
				m.ensureMiner()
			}
			b.ReportMetric(float64(m.miner.TrackedItemsets()), "itemsets")
		})
	}
}

// BenchmarkExtendFleet times one steady-state Extend: a seeded model
// absorbing one more period. The model is reloaded and re-seeded off the
// clock every fleetExtendDays periods, so history stays at the fleet's
// ten-odd periods however long the benchmark runs.
func BenchmarkExtendFleet(b *testing.B) {
	for _, kind := range datagen.Kinds {
		b.Run(fmt.Sprint(kind), func(b *testing.B) {
			stream, days := fleetModel(b, kind)
			var m *Model
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%len(days) == 0 {
					b.StopTimer()
					m = loadFleetModel(b, stream)
					m.ensureMiner()
					b.StartTimer()
				}
				if _, err := m.Extend(days[i%len(days) : i%len(days)+1]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
