package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hpm"
	"hpm/internal/datagen"
)

// restartFleet is a small fleet whose objects all train: n objects cycling
// through datagen's four kinds, each with trainPeriods periods to train on
// and spare periods to stream afterwards. A quarter of them (every fourth)
// stop ten ticks short of a period boundary, the rest five past one, so a
// twenty-tick tail carries exactly that quarter into an Extend.
type restartFleet struct {
	ids    []string
	tracks [][]hpm.Point
	cuts   []int
}

const restartTrainPeriods = 10

func newRestartFleet(n, sparePeriods int) *restartFleet {
	f := &restartFleet{}
	for i := 0; i < n; i++ {
		tr := datagen.Generate(datagen.Spec{
			Kind:            datagen.Kinds[i%len(datagen.Kinds)],
			Period:          period,
			SubTrajectories: restartTrainPeriods + 1 + sparePeriods,
			Seed:            int64(1000 + i),
		})
		cut := restartTrainPeriods*period + 5
		if i%4 == 0 {
			cut = (restartTrainPeriods+1)*period - 10
		}
		f.ids = append(f.ids, fmt.Sprintf("obj-%03d", i))
		f.tracks = append(f.tracks, tr.Points())
		f.cuts = append(f.cuts, cut)
	}
	return f
}

func restartOptions() Options {
	return Options{Config: hpm.Config{Period: period}, MinTrainPeriods: 4, WALNoSync: true}
}

// load feeds every object's prefix in one batch each, so the first train
// sees all of it, and waits for the trains.
func (f *restartFleet) load(tb testing.TB, s *Store) {
	tb.Helper()
	obs := make([]Observation, len(f.ids))
	for i, id := range f.ids {
		obs[i] = Observation{ID: id, Points: f.tracks[i][:f.cuts[i]]}
	}
	if err := s.ObserveAll(obs); err != nil {
		tb.Fatal(err)
	}
	f.settle(tb, s)
}

// stream feeds ticks [from, to) past each object's cut, one point per object
// per tick, as a fleet tick does.
func (f *restartFleet) stream(tb testing.TB, s *Store, from, to int) {
	tb.Helper()
	for t := from; t < to; t++ {
		obs := make([]Observation, len(f.ids))
		for i, id := range f.ids {
			obs[i] = Observation{ID: id, Points: f.tracks[i][f.cuts[i]+t : f.cuts[i]+t+1]}
		}
		if err := s.ObserveAll(obs); err != nil {
			tb.Fatal(err)
		}
	}
	f.settle(tb, s)
}

func (f *restartFleet) settle(tb testing.TB, s *Store) {
	tb.Helper()
	if err := s.Flush(); err != nil {
		tb.Fatal(err)
	}
	for _, id := range f.ids {
		if st, err := s.Stats(id); err != nil || !st.Trained {
			tb.Fatalf("%s not trained: %+v, %v", id, st, err)
		}
	}
}

// answers is every object's batch prediction at the benchmark's horizons,
// which straddle the distant-time threshold so FQP, BQP, the chain and the
// fallback all answer somewhere in the fleet.
func (f *restartFleet) answers(tb testing.TB, s *Store) map[string][][]hpm.Prediction {
	tb.Helper()
	out := make(map[string][][]hpm.Prediction, len(f.ids))
	for _, id := range f.ids {
		_, preds, err := s.PredictBatchAheadContext(context.Background(), id, []int{2, 5, 20, 60, 100}, 3)
		if err != nil {
			tb.Fatalf("predict %s: %v", id, err)
		}
		out[id] = preds
	}
	return out
}

// TestRestartAnswersMatchTwin: a store that was closed and reopened, and one
// that was killed and recovered from snapshot plus WAL tail, answer exactly
// as a twin that never restarted — before and after one more period is
// observed, which runs every object's Extend through a miner re-seeded from
// the loaded model (the clean reopen) and through replay (the recovery).
//
// A store fans loads and replay out across the
// GOMAXPROCS it was built under, so the whole sequence runs once serial
// and once parallel, and the two must leave the same bytes and the same
// answers behind every restart.
func TestRestartAnswersMatchTwin(t *testing.T) {
	var runs [2]restartTrail
	for i := range runs {
		procs := i + 1
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			runs[i] = restartAgainstTwin(t)
		})
	}
	serial, par := runs[0], runs[1]
	if len(serial.when) == 0 || len(serial.when) != len(par.when) {
		t.Fatalf("%d serial and %d parallel stages", len(serial.when), len(par.when))
	}
	for i, when := range serial.when {
		if !bytes.Equal(serial.saved[i], par.saved[i]) {
			t.Errorf("%s: serial and parallel stores save %d and %d different bytes", when, len(serial.saved[i]), len(par.saved[i]))
		}
		if !reflect.DeepEqual(serial.answers[i], par.answers[i]) {
			t.Errorf("%s: serial and parallel stores answer differently", when)
		}
	}
}

// restartTrail is what the restarted store saved and answered at each
// stage of restartAgainstTwin.
type restartTrail struct {
	when    []string
	saved   [][]byte
	answers []map[string][][]hpm.Prediction
}

func restartAgainstTwin(t *testing.T) (trail restartTrail) {
	f := newRestartFleet(64, 2)
	twin, err := New(restartOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	dir := t.TempDir()
	s, err := Open(dir, restartOptions())
	if err != nil {
		t.Fatal(err)
	}
	f.load(t, twin)
	f.load(t, s)
	same := func(when string) {
		t.Helper()
		want, got := f.answers(t, twin), f.answers(t, s)
		for _, id := range f.ids {
			if !reflect.DeepEqual(got[id], want[id]) {
				t.Fatalf("%s: %s answers\n%+v\nthe twin that never restarted\n%+v", when, id, got[id], want[id])
			}
		}
		trail.when = append(trail.when, when)
		trail.saved = append(trail.saved, fleetBytes(t, s))
		trail.answers = append(trail.answers, got)
	}
	same("before any restart")

	if err := s.Close(); err != nil { // checkpoints
		t.Fatal(err)
	}
	if s, err = Open(dir, restartOptions()); err != nil {
		t.Fatal(err)
	}
	if oi := s.Health().Open; oi == nil || oi.LoadSeconds <= 0 || oi.ReplayExtends != 0 || oi.Models != len(f.ids) {
		t.Fatalf("clean reopen reports %+v", oi)
	}
	if fs := s.FleetStats(); fs.Miners != 0 || fs.MinerItemsets != 0 {
		t.Fatalf("clean reopen seeded %d miners (%d itemsets) with no Extend to run", fs.Miners, fs.MinerItemsets)
	}
	same("after a clean reopen")
	f.stream(t, twin, 0, period)
	f.stream(t, s, 0, period)
	same("a period after a clean reopen")

	crash(s) // the snapshot predates the period just streamed: all of it replays
	if s, err = Open(dir, restartOptions()); err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	f.settle(t, s)
	if h := s.Health(); h.WALReplayed != period*len(f.ids) || h.Open.ReplayExtends != uint64(len(f.ids)) {
		t.Fatalf("recovery replayed %d records with %d extends, want %d and %d", h.WALReplayed, h.Open.ReplayExtends, period*len(f.ids), len(f.ids))
	}
	if oi := s.Health().Open; oi.Models != len(f.ids) {
		t.Fatalf("recovery loaded %d models, want %d", oi.Models, len(f.ids))
	}
	if fs := s.FleetStats(); fs.Miners != len(f.ids) || fs.MinerItemsets < fs.Miners {
		t.Fatalf("recovery left %d miners tracking %d itemsets, want one per object", fs.Miners, fs.MinerItemsets)
	}
	same("after a crash recovery")
	f.stream(t, twin, period, 2*period)
	f.stream(t, s, period, 2*period)
	same("a period after a crash recovery")

	// Every tree has now been through two Extends: this checkpoint saves
	// shapes no bulk load would pack, and the reopen reads them back.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, restartOptions()); err != nil {
		t.Fatal(err)
	}
	if oi := s.Health().Open; oi.Models != len(f.ids) {
		t.Fatalf("reopen of extended models reports %+v", oi)
	}
	same("after reopening trees that Extend rearranged")
	return trail
}
