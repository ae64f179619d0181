package store

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpm"
)

const period = 60

func testStore(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.Config.Period == 0 {
		opts.Config.Period = period
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// feed pushes n periods of a dataset trajectory into the store.
func feed(t testing.TB, s *Store, id string, seed int64, periods int) *hpm.Trajectory {
	t.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
	spec.Period = s.Period()
	spec.SubTrajectories = periods
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch(id, tr.Points()); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestTrainAfterMinPeriods(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 4})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)

	// Feed three periods: still untrained.
	if err := s.ObserveBatch("bike", tr.Slice(0, 3*period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Predict("bike", 3*period+10, 1); err != ErrUntrained {
		t.Errorf("expected ErrUntrained, got %v", err)
	}
	st, err := s.Stats("bike")
	if err != nil || st.Trained {
		t.Errorf("premature training: %+v, %v", st, err)
	}

	// One more period crosses the threshold; the train runs in the
	// background, so Flush before asserting on the model.
	if err := s.ObserveBatch("bike", tr.Slice(3*period, 4*period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats("bike")
	if !st.Trained || st.Modeled != 4 {
		t.Fatalf("not trained after 4 periods: %+v", st)
	}
	if st.Patterns == 0 || st.Regions == 0 || st.IndexBytes == 0 {
		t.Errorf("empty model stats: %+v", st)
	}
}

func TestPredictOnStream(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 5})
	tr := feed(t, s, "bike", 2, 10)
	now, err := s.Now("bike")
	if err != nil || now != tr.Len()-1 {
		t.Fatalf("Now = %d, %v; want %d", now, err, tr.Len()-1)
	}
	preds, err := s.Predict("bike", now+20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 {
		t.Fatalf("got %d predictions", len(preds))
	}
	rng, err := s.PredictRange("bike", now+1, now+5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rng) != 5 {
		t.Fatalf("range returned %d predictions", len(rng))
	}
}

func TestExtendOnNewPeriods(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 5})
	feed(t, s, "bike", 3, 5)
	st, _ := s.Stats("bike")
	if st.Modeled != 5 {
		t.Fatalf("modeled %d, want 5", st.Modeled)
	}
	// Two more periods: incremental extends keep the model current.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 3)
	spec.Period = period
	spec.SubTrajectories = 8
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch("bike", tr.Slice(5*period, 7*period)); err != nil {
		t.Fatal(err)
	}
	st, _ = s.Stats("bike")
	if st.Modeled != 7 {
		t.Errorf("modeled %d after extend, want 7", st.Modeled)
	}
	if st.Periods != 7 {
		t.Errorf("periods %d, want 7", st.Periods)
	}
}

func TestMultipleObjectsIsolated(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 5})
	feed(t, s, "a", 10, 6)
	feed(t, s, "b", 20, 6)
	ids := s.Objects()
	if len(ids) != 2 || ids[0] != "a" || ids[1] != "b" {
		t.Fatalf("Objects = %v", ids)
	}
	sa, _ := s.Stats("a")
	sb, _ := s.Stats("b")
	if sa.Patterns == sb.Patterns && sa.Regions == sb.Regions && sa.IndexBytes == sb.IndexBytes {
		t.Error("two different objects produced identical models (suspicious)")
	}
	s.Remove("a")
	if _, err := s.Stats("a"); err == nil {
		t.Error("removed object still present")
	}
	if _, err := s.Predict("never-seen", 10, 1); err == nil {
		t.Error("unknown object accepted")
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	s := testStore(t, Options{})
	if err := s.ObserveBatch("x", nil); err != nil {
		t.Fatal(err)
	}
	if len(s.Objects()) != 0 {
		t.Error("empty batch created an object")
	}
}

func TestConcurrentObserveAndPredict(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	tr := feed(t, s, "bike", 6, 4) // trained
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	// Writers: keep streaming one more period in small batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 6)
		spec.Period = period
		spec.SubTrajectories = 6
		more := hpm.GenerateDataset(spec).Slice(4*period, 6*period)
		for i := 0; i < len(more); i += 10 {
			end := i + 10
			if end > len(more) {
				end = len(more)
			}
			if err := s.ObserveBatch("bike", more[i:end]); err != nil {
				errs <- err
				return
			}
		}
	}()
	// Readers: concurrent predictions.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Relative horizons resolve against the current time under the
			// lock hold that answers them, so — unlike Now followed by
			// Predict — no amount of ingest in between can fail them.
			for i := 0; i < 30; i++ {
				tq, preds, err := s.PredictAheadContext(context.Background(), "bike", 10, 1)
				if err != nil {
					errs <- err
					return
				}
				if len(preds) == 0 || tq < 4*period+9 {
					errs <- fmt.Errorf("PredictAhead: tq %d, %d predictions", tq, len(preds))
					return
				}
				tqs, batch, err := s.PredictBatchAheadContext(context.Background(), "bike", []int{1, 80}, 1)
				if err != nil {
					errs <- err
					return
				}
				if len(batch) != 2 || tqs[1]-tqs[0] != 79 {
					errs <- fmt.Errorf("PredictBatchAhead: tqs %v, %d entries", tqs, len(batch))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	_ = tr
}

func TestStatsIncludeQueryCounters(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "bike", 8, 5)
	now, _ := s.Now("bike")
	for i := 0; i < 3; i++ {
		if _, err := s.Predict("bike", now+10+i, 1); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries.Queries != 3 {
		t.Errorf("query counter = %d, want 3", st.Queries.Queries)
	}
	if st.Queries.Forward+st.Queries.Backward+st.Queries.Fallback+st.Queries.Unanswered != 3 {
		t.Errorf("query paths don't sum: %+v", st.Queries)
	}
}

// TestOptionsBudget is a ratchet: Options had 26 fields before the
// training regimes were collapsed into one policy, 22 before the worker
// counts and the policy knobs nothing set became constants, 16 before the
// shard count became part of the on-disk format, 15 before the forced full
// rewrite that changed no byte went. A new field
// needs two callers that want different values — and then this number
// moves.
func TestOptionsBudget(t *testing.T) {
	if n := reflect.TypeOf(Options{}).NumField(); n > 14 {
		t.Errorf("store.Options has %d fields, budget is 14", n)
	}
}

// TestTrainPoolFollowsGOMAXPROCS: the train pool is as wide as the
// processors the scheduler may use, not as the machine: under GOMAXPROCS=1
// on a larger host (a CPU quota, a CI leg) a second concurrent train would
// only take turns with the first on the one core.
func TestTrainPoolFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := testStore(t, restartOptions())
	defer s.Close()
	var inflight, high atomic.Int32
	s.beforeTrain = func() {
		n := inflight.Add(1)
		for h := high.Load(); n > h && !high.CompareAndSwap(h, n); h = high.Load() {
		}
		// Hold the slot while every other trainer gets to run: one that
		// could take a second slot would be counted beside this one.
		time.Sleep(2 * time.Millisecond)
		inflight.Add(-1)
	}
	newRestartFleet(8, 0).load(t, s) // eight first trains from one ObserveAll
	if h := high.Load(); h != 1 {
		t.Errorf("%d trains ran at once under GOMAXPROCS=1", h)
	}
}

// TestObserveEntryPointsAgree: every way a point can enter the store —
// ObserveBatch, a one-element and a multi-element ObserveAll (split
// observations of the same id, merged, beside a second object), and WAL
// replay into a fresh process — goes through the same append-and-fold
// step and the same update policy, so the same stream must leave the same
// stats, the same Markov chain and the same answers.
func TestObserveEntryPointsAgree(t *testing.T) {
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 41)
	spec.Period = period
	spec.SubTrajectories = 6
	pts := hpm.GenerateDataset(spec).Points()
	pts = pts[:len(pts)-period/2] // end mid-period: a WAL-only tail past the last extend
	opts := incrementalOpts()
	opts.WALNoSync = true

	// stream feeds the track in 17-point chunks (period boundaries land
	// mid-chunk) through one entry point.
	stream := func(t *testing.T, s *Store, observe func(chunk []hpm.Point) error) {
		t.Helper()
		for off := 0; off < len(pts); off += 17 {
			end := off + 17
			if end > len(pts) {
				end = len(pts)
			}
			if err := observe(pts[off:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
	type outcome struct {
		stats ObjectStats
		chain []byte
		tqs   []int
		preds [][]hpm.Prediction
	}
	capture := func(t *testing.T, s *Store) outcome {
		t.Helper()
		var o outcome
		var err error
		if o.stats, err = s.Stats("bike"); err != nil {
			t.Fatal(err)
		}
		o.chain = chainBytes(t, s, "bike")
		if o.tqs, o.preds, err = s.PredictBatchAheadContext(context.Background(), "bike", []int{2, 5, 20, 60, 100}, 3); err != nil {
			t.Fatal(err)
		}
		return o
	}

	ref := testStore(t, opts)
	stream(t, ref, func(c []hpm.Point) error { return ref.ObserveBatch("bike", c) })
	want := capture(t, ref)
	if !want.stats.Trained || want.stats.Modeled != 5 || len(want.chain) == 0 {
		t.Fatalf("reference run is not a trained, extended object: %+v", want.stats)
	}
	for name, run := range map[string]func(t *testing.T) outcome{
		"ObserveAll/one": func(t *testing.T) outcome {
			s := testStore(t, opts)
			stream(t, s, func(c []hpm.Point) error { return s.ObserveAll([]Observation{{ID: "bike", Points: c}}) })
			return capture(t, s)
		},
		"ObserveAll/many": func(t *testing.T) outcome {
			s := testStore(t, opts)
			stream(t, s, func(c []hpm.Point) error {
				return s.ObserveAll([]Observation{
					{ID: "bike", Points: c[:len(c)/2]},
					{ID: "aside", Points: c},
					{ID: "bike", Points: c[len(c)/2:]},
				})
			})
			return capture(t, s)
		},
		"WAL replay": func(t *testing.T) outcome {
			dir := t.TempDir()
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			stream(t, s, func(c []hpm.Point) error { return s.ObserveBatch("bike", c) })
			crash(s) // no checkpoint: the reopened store is replay alone
			back, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer back.Close()
			if h := back.Health(); h.SnapshotRestored || h.WALReplayed == 0 {
				t.Fatalf("reopen did not come from the WAL alone: %+v", h)
			}
			return capture(t, back)
		},
	} {
		t.Run(name, func(t *testing.T) {
			got := run(t)
			if got.stats != want.stats {
				t.Errorf("stats differ:\n got %+v\nwant %+v", got.stats, want.stats)
			}
			if !bytes.Equal(got.chain, want.chain) {
				t.Errorf("markov chain differs: %d vs %d bytes", len(got.chain), len(want.chain))
			}
			if !reflect.DeepEqual(got.tqs, want.tqs) || !reflect.DeepEqual(got.preds, want.preds) {
				t.Errorf("predictions differ:\n got %v %+v\nwant %v %+v", got.tqs, got.preds, want.tqs, want.preds)
			}
		})
	}
}
