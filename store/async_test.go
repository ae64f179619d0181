package store

import (
	"testing"
	"time"

	"hpm"
)

// TestQueriesServeDuringBackgroundRetrain pins the async-retrain contract:
// while an object's retrain is provably in flight (the trainer goroutine is
// parked on the beforeTrain hook), queries against other objects AND the
// retraining object itself keep answering from the old predictor, and
// ObserveBatch returns without waiting for the trainer. Flush makes the
// final assertions deterministic.
func TestQueriesServeDuringBackgroundRetrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 2})
	feed(t, s, "a", 31, 3)
	feed(t, s, "b", 32, 3)
	pBefore, err := s.Predictor("b")
	if err != nil || pBefore == nil {
		t.Fatalf("b untrained after feed: %v", err)
	}

	// Park the next trainer until released.
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.beforeTrain = func() {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	// Two more periods on b trip RetrainEvery; the retrain must be handed
	// off, not run on this goroutine.
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 32)
	spec.Period = period
	spec.SubTrajectories = 6
	tr := hpm.GenerateDataset(spec)
	start := time.Now()
	if err := s.ObserveBatch("b", tr.Slice(3*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ObserveBatch took %v with training backgrounded", d)
	}
	<-entered // the retrain is now provably in flight (and parked)

	st, err := s.Stats("b")
	if err != nil || !st.Training {
		t.Fatalf("no in-flight train visible: %+v, %v", st, err)
	}

	// Object a is untouched by b's retrain.
	nowA, _ := s.Now("a")
	if _, err := s.Predict("a", nowA+10, 1); err != nil {
		t.Errorf("Predict(a) blocked or failed during b's retrain: %v", err)
	}
	// Object b itself keeps serving from the old predictor.
	nowB, _ := s.Now("b")
	if _, err := s.Predict("b", nowB+10, 1); err != nil {
		t.Errorf("Predict(b) failed during its own retrain: %v", err)
	}
	if p, _ := s.Predictor("b"); p != pBefore {
		t.Error("predictor swapped before the trainer finished")
	}
	// Ingest on b stays cheap while its trainer is parked.
	start = time.Now()
	if err := s.ObserveBatch("b", tr.Slice(5*period, 5*period+30)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("ObserveBatch blocked on in-flight train: %v", d)
	}

	release <- struct{}{} // let the trainer finish
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pAfter, _ := s.Predictor("b")
	if pAfter == pBefore {
		t.Error("retrain did not produce a fresh predictor")
	}
	st, _ = s.Stats("b")
	if st.Training || st.Modeled != 5 {
		t.Errorf("post-flush state: %+v", st)
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

// TestCatchUpAfterRetrain: periods that complete while a retrain is in
// flight are absorbed by the post-swap catch-up, so Flush leaves the model
// fully current.
func TestCatchUpAfterRetrain(t *testing.T) {
	s := testStore(t, Options{MinTrainPeriods: 3, RetrainEvery: 2})
	feed(t, s, "bike", 35, 3)

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
	// Trip the retrain (snapshot covers 5 periods)...
	if err := s.ObserveBatch("bike", tr.Slice(3*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	<-entered
	// ...then complete one more period while the trainer is parked. Only
	// the catch-up can absorb it.
	if err := s.ObserveBatch("bike", tr.Slice(5*period, 6*period)); err != nil {
		t.Fatal(err)
	}
	s.beforeTrain = nil // a catch-up retrain must not park
	close(release)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, _ := s.Stats("bike")
	if st.Modeled != 6 {
		t.Errorf("catch-up missed a period: modeled %d, want 6", st.Modeled)
	}
}
