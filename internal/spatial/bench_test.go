package spatial

import (
	"fmt"
	"math/rand"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
)

// BenchmarkUpdate times one object's refresh at the loopback harness's
// shape: 5 600 objects on 200-unit cells at the default six horizons. Each
// object rides one of sixteen datagen routes (four per kind, period 60)
// from its own phase, shifted by its own offset; an op advances one object
// by a tick and sets its six entries to the route's points that many ticks
// ahead — where a trained predictor puts them. Objects are taken in turn,
// as a tick of the harness observes every one. It reports re-bins per op.
func BenchmarkUpdate(b *testing.B) {
	const objects, routes, cell = 5600, 16, 200
	tracks := make([][]geom.Point, routes)
	for i := range tracks {
		tracks[i] = datagen.Generate(datagen.Spec{
			Kind:            datagen.Kinds[i%len(datagen.Kinds)],
			Period:          60,
			SubTrajectories: 8,
			Seed:            int64(i),
		}).Points()
	}
	type obj struct {
		slot   Slot
		route  []geom.Point
		at     int
		offset geom.Point
	}
	r := rand.New(rand.NewSource(1))
	ix := New(Config{CellSize: cell})
	hs := ix.Horizons()
	entries := make([]Entry, len(hs))
	set := func(o *obj) {
		for i, h := range hs {
			p := o.route[(o.at+h)%len(o.route)]
			entries[i] = Entry{Horizon: h, Pos: geom.Pt(p.X+o.offset.X, p.Y+o.offset.Y), Path: "forward"}
		}
		ix.Set(o.slot, entries)
	}
	objs := make([]obj, objects)
	for i := range objs {
		o := &objs[i]
		o.slot = ix.Add(fmt.Sprintf("t%04d", i))
		o.route = tracks[i%routes]
		o.at = r.Intn(len(o.route))
		o.offset = geom.Pt(r.Float64()*2000-1000, r.Float64()*2000-1000)
		set(o)
	}
	before := ix.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := &objs[i%objects]
		o.at++
		set(o)
	}
	b.StopTimer()
	after := ix.Stats()
	b.ReportMetric(float64(after.Rebins-before.Rebins)/float64(b.N), "rebins/op")
}
