package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"hpm"
	"hpm/internal/faultinject"
)

// parkTrain installs a fault hook that parks the store's next train on the
// OpTrain fault point: entered is closed once that train is parked, and it
// runs on once release is closed. Later trains run straight through.
func parkTrain(s *Store) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.SetFaultHook(func(op faultinject.Op) error {
		if op != faultinject.OpTrain {
			return nil
		}
		parked := false
		once.Do(func() { close(entered); parked = true })
		if parked {
			<-release
		}
		return nil
	})
	return entered, release
}

// within runs fn on its own goroutine and fails the test if it has not
// returned after d: a call that waited on a parked train would hang the
// test instead of failing it.
func within(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); fn() }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not return within %v", what, d)
	}
}

// TestQueriesServeDuringBackgroundTrain pins what readers see while an
// object's one train, its first, runs inside the observe that completed its
// period: with that train provably in flight (parked on the OpTrain fault
// hook, the observe on a second goroutine), queries against other objects
// keep answering, and the training object answers ErrUntrained at once
// instead of waiting. Once released, the observe returns with the model
// installed over every completed period.
func TestQueriesServeDuringBackgroundTrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "a", 31, 3)
	entered, release := parkTrain(s)

	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 32)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)
	observed := make(chan error, 1)
	go func() { observed <- s.ObserveBatch("b", tr.Slice(0, 3*period)) }()
	<-entered // b's train is now provably in flight (and parked)

	within(t, 5*time.Second, "queries during b's train", func() {
		st, err := s.Stats("b")
		if err != nil || st.Trained || st.Points != 3*period {
			t.Errorf("mid-train state: %+v, %v", st, err)
		}
		// Object a is untouched by b's train.
		nowA, _ := s.Now("a")
		if _, err := predict(s, "a", nowA+10, 1); err != nil {
			t.Errorf("Predict(a) during b's train: %v", err)
		}
		// Object b answers, without waiting, that it has no model yet.
		nowB, _ := s.Now("b")
		if _, err := predict(s, "b", nowB+10, 1); !errors.Is(err, ErrUntrained) {
			t.Errorf("Predict(b) during its first train: %v, want ErrUntrained", err)
		}
	})
	select {
	case err := <-observed:
		t.Fatalf("observe returned before its train ran: %v", err)
	default:
	}

	close(release)
	if err := <-observed; err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats("b")
	if !st.Trained || st.Modeled != 3 {
		t.Errorf("state once the observe returned: %+v", st)
	}
	if _, err := predict(s, "b", 3*period+40, 1); err != nil {
		t.Errorf("Predict(b) after its first train: %v", err)
	}
}

// TestCatchUpAfterFirstTrain: an observe that completes several periods at
// once trains over all of them, so the model is current after one train
// and no Extend.
func TestCatchUpAfterFirstTrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 35)
	spec.Period = period
	spec.SubTrajectories = 6
	if err := s.ObserveBatch("bike", hpm.GenerateDataset(spec).Slice(0, 6*period)); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats("bike")
	if !st.Trained || st.Modeled != 6 {
		t.Errorf("state after one six-period batch: %+v, want trained at modeled 6", st)
	}
	if fs := s.FleetStats(); fs.Trains != 1 || fs.Extends != 0 {
		t.Errorf("trains %d, extends %d: want the one train and no extend", fs.Trains, fs.Extends)
	}
}

// TestFirstTrainsUnderReads races first trains against their readers. Fleet
// ObserveAll batches complete the third period of 32 objects, eight a batch,
// so each batch's first trains run across the workers, while readers predict
// those objects and quiet trained ones, and a kNN query builds its bucket.
// Every answer must be ErrUntrained or exactly what a quiet twin store, fed
// the same points with no race, answers, and afterwards the index must
// equal a scan.
func TestFirstTrainsUnderReads(t *testing.T) {
	opts := Options{MinTrainPeriods: 3}
	s, twin := fleetStore(t, opts), testStore(t, opts)
	kinds := []hpm.Dataset{hpm.DatasetBike, hpm.DatasetCow, hpm.DatasetCar}
	tracks := map[string][]hpm.Point{}
	var fresh, ids []string
	for i := 0; i < 36; i++ {
		id, periods := fmt.Sprintf("fresh-%02d", i), 3
		if i >= 32 {
			id, periods = fmt.Sprintf("quiet-%d", i-32), 4
		} else {
			fresh = append(fresh, id)
		}
		spec := hpm.DefaultDatasetSpec(kinds[i%len(kinds)], int64(50+i))
		spec.Period = period
		spec.SubTrajectories = periods
		tracks[id] = hpm.GenerateDataset(spec).Points()
		ids = append(ids, id)
	}
	var batches [][]Observation
	for i, id := range fresh {
		if i%8 == 0 {
			batches = append(batches, nil)
		}
		batches[len(batches)-1] = append(batches[len(batches)-1], Observation{ID: id, Points: tracks[id][2*period:]})
	}
	want := map[string][][]hpm.Prediction{}
	tqs := func(id string) []int { end := len(tracks[id]) - 1; return []int{end + 5, end + 100} }
	for _, st := range []*Store{s, twin} {
		for _, id := range ids {
			pts := tracks[id]
			if !strings.HasPrefix(id, "quiet") {
				pts = pts[:2*period]
			}
			if err := st.ObserveBatch(id, pts); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, b := range batches {
		if err := twin.ObserveAll(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		ans, err := twin.PredictBatchContext(context.Background(), id, tqs(id), 2)
		if err != nil {
			t.Fatalf("twin %s: %v", id, err)
		}
		want[id] = ans
	}

	// One bucket is live before the race, so every install must refresh
	// it; the kNN below builds another while the trains install.
	everything := rct(math.Inf(-1), math.Inf(-1), math.Inf(1), math.Inf(1))
	if _, err := queryRange(s, everything, 5); err != nil {
		t.Fatal(err)
	}
	written := make(chan struct{})
	var wg sync.WaitGroup
	race := func(fn func()) {
		wg.Add(1)
		go func() { defer wg.Done(); fn() }()
	}
	race(func() {
		defer close(written)
		for _, b := range batches {
			if err := s.ObserveAll(b); err != nil {
				t.Error(err)
				return
			}
		}
	})
	origin := hpm.Pt(500, 500)
	race(func() { // builds the h = 100 bucket while trains install
		for {
			if _, err := queryNearest(s, origin, 5, 100); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-written:
				return
			default:
			}
		}
	})
	for r := 0; r < 4; r++ {
		race(func() {
			for last := false; !last; {
				select {
				case <-written:
					last = true // one more pass once every batch is in
				default:
				}
				for i := range ids {
					id := ids[(i+r*9)%len(ids)]
					got, err := s.PredictBatchContext(context.Background(), id, tqs(id), 2)
					switch {
					case errors.Is(err, ErrUntrained):
					case err != nil:
						t.Errorf("%s: %v", id, err)
						return
					case !reflect.DeepEqual(got, want[id]):
						t.Errorf("%s answered %v, its quiet twin %v", id, got, want[id])
						return
					}
				}
			}
		})
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for _, id := range fresh {
		if st, err := s.Stats(id); err != nil || !st.Trained || st.Modeled != 3 {
			t.Errorf("%s after the race: %+v, %v", id, st, err)
		}
	}
	for _, h := range s.fleetHorizons() {
		got, err1 := queryRange(s, everything, h)
		scan, err2 := s.ScanRange(everything, h)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, scan) {
			t.Fatalf("h=%d (%v, %v):\nindex: %v\nscan:  %v", h, err1, err2, got, scan)
		}
		got, err1 = queryNearest(s, origin, len(ids), h)
		scan, err2 = s.scanNearest(origin, len(ids), h)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, scan) {
			t.Fatalf("kNN h=%d (%v, %v):\nindex: %v\nscan:  %v", h, err1, err2, got, scan)
		}
	}
}
