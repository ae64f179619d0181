package store

import (
	"errors"
	"testing"
	"time"

	"hpm"
)

// TestQueriesServeDuringBackgroundTrain pins the async-train contract on
// an object's one train, its first: while the train is provably in flight
// (the trainer goroutine is parked on the beforeTrain hook), queries against
// other objects keep answering, the training object answers ErrUntrained
// at once instead of waiting, and ObserveBatch returns without waiting for
// the trainer. Flush makes the final assertions deterministic.
func TestQueriesServeDuringBackgroundTrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})
	feed(t, s, "a", 31, 3)

	// Park the next trainer until released.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.beforeTrain = func() {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	// Three periods on b reach MinTrainPeriods; the train must be handed
	// off, not run on this goroutine.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 32)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)
	start := time.Now()
	if err := s.ObserveBatch("b", tr.Slice(0, 3*period)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ObserveBatch took %v with training backgrounded", d)
	}
	<-entered // the train is now provably in flight (and parked)

	st, err := s.Stats("b")
	if err != nil || !st.Training || st.Trained {
		t.Fatalf("no in-flight first train visible: %+v, %v", st, err)
	}

	// Object a is untouched by b's train.
	nowA, _ := s.Now("a")
	if _, err := s.Predict("a", nowA+10, 1); err != nil {
		t.Errorf("Predict(a) blocked or failed during b's train: %v", err)
	}
	// Object b answers, without waiting, that it has no model yet.
	nowB, _ := s.Now("b")
	if _, err := s.Predict("b", nowB+10, 1); !errors.Is(err, ErrUntrained) {
		t.Errorf("Predict(b) during its first train: %v, want ErrUntrained", err)
	}
	// Ingest on b stays cheap while its trainer is parked.
	start = time.Now()
	if err := s.ObserveBatch("b", tr.Slice(3*period, 3*period+30)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ObserveBatch blocked on in-flight train: %v", d)
	}

	release <- struct{}{} // let the trainer finish
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if p, _ := s.Predictor("b"); p == nil {
		t.Error("first train did not install a predictor")
	}
	st, _ = s.Stats("b")
	if st.Training || !st.Trained || st.Modeled != 3 {
		t.Errorf("post-flush state: %+v", st)
	}
	if _, err := s.Predict("b", nowB+40, 1); err != nil {
		t.Errorf("Predict(b) after its first train: %v", err)
	}
}

// TestCloseStopsScheduling: after Close, crossing the training threshold
// must not spawn trainers, and Flush/Close stay safe to call.
func TestCloseStopsScheduling(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 2})
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 33)
	spec.Period = period
	spec.SubTrajectories = 3
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch("bike", tr.Slice(0, period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bike", tr.Slice(period, 3*period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.Trained || st.Training {
		t.Errorf("train scheduled after Close: %+v", st)
	}
}

// TestCatchUpAfterFirstTrain: periods that complete while the first train is
// in flight are absorbed by the post-install catch-up, as Extends on the
// installed model, so Flush leaves the model fully current after one train.
func TestCatchUpAfterFirstTrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3})

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.beforeTrain = func() {
		entered <- struct{}{}
		<-release
	}

	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 35)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)
	// Schedule the first train (snapshot covers 3 periods)...
	if err := s.ObserveBatch("bike", tr.Slice(0, 3*period)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// ...then complete three more periods while the trainer is parked. Only
	// the catch-up can absorb them.
	if err := s.ObserveBatch("bike", tr.Slice(3*period, 6*period)); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats("bike")
	if st.Modeled != 6 {
		t.Errorf("catch-up missed a period: modeled %d, want 6", st.Modeled)
	}
	if fs := s.FleetStats(); fs.Trains != 1 || fs.Extends != 1 {
		t.Errorf("trains %d, extends %d: want the one train, then one catch-up extend", fs.Trains, fs.Extends)
	}
}
