package store

import (
	"sync"
	"testing"

	"hpm"
	"hpm/internal/evalq"
)

// evalStore returns a trained store with the evaluator on (the default)
// and the dataset trajectory that fed it.
func evalStore(t *testing.T, opts Options) (*Store, *hpm.Trajectory) {
	t.Helper()
	if opts.MinTrainPeriods == 0 {
		opts.MinTrainPeriods = 3
	}
	s := testStore(t, opts)
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 1)
	spec.Period = period
	spec.SubTrajectories = 8
	tr := hpm.GenerateDataset(spec)
	if err := s.ObserveBatch("bike", tr.Slice(0, 4*period)); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s, tr
}

func TestEvalScoresServedPredictions(t *testing.T) {
	s, tr := evalStore(t, Options{})
	now := 4*period - 1
	if _, err := s.Predict("bike", now+5, 1); err != nil { // near: FQP bucket
		t.Fatal(err)
	}
	if _, err := s.Predict("bike", now+60, 1); err != nil { // distant: BQP bucket
		t.Fatal(err)
	}
	sum, err := s.EvalStats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recorded != 2 || sum.Outstanding != 2 || sum.Scored != 0 {
		t.Fatalf("before truth: %+v", sum.Totals)
	}

	// The next period's observations are the ground truth for both.
	if err := s.ObserveBatch("bike", tr.Slice(4*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	sum, err = s.EvalStats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scored != 2 || sum.Outstanding != 0 {
		t.Fatalf("after truth: %+v", sum.Totals)
	}
	var attempts uint64
	for _, c := range sum.Cells {
		attempts += c.Attempts
	}
	if attempts != 2 {
		t.Errorf("cell attempts = %d, want 2", attempts)
	}

	fs := s.FleetStats()
	if fs.Objects != 1 || fs.Trained != 1 {
		t.Errorf("fleet shape: %+v", fs)
	}
	if fs.Eval.Scored != 2 {
		t.Errorf("fleet eval scored = %d, want 2", fs.Eval.Scored)
	}
	if fs.Queries.Queries < 2 {
		t.Errorf("fleet queries = %+v", fs.Queries)
	}
}

func TestEvalDisabled(t *testing.T) {
	s, tr := evalStore(t, Options{EvalDisabled: true})
	now := 4*period - 1
	if _, err := s.Predict("bike", now+5, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bike", tr.Slice(4*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	sum, err := s.EvalStats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Recorded != 0 || sum.Scored != 0 {
		t.Errorf("disabled evaluator counted: %+v", sum.Totals)
	}
	if len(sum.Cells) == 0 {
		t.Error("disabled evaluator should still report stable zero cells")
	}
}

func TestEvalPredictBatchRecorded(t *testing.T) {
	s, tr := evalStore(t, Options{})
	now := 4*period - 1
	if _, err := s.PredictBatch("bike", []int{now + 1, now + 2, now + 60}, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bike", tr.Slice(4*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	sum, err := s.EvalStats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Scored != 3 {
		t.Errorf("scored = %d, want 3", sum.Scored)
	}
}

func TestEvalFallbackShadowScores(t *testing.T) {
	s, tr := evalStore(t, Options{})
	now := 4*period - 1
	if _, err := s.Predict("bike", now+60, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PredictVia("bike", evalq.PathFallback, now+60, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.ObserveBatch("bike", tr.Slice(4*period, 5*period)); err != nil {
		t.Fatal(err)
	}
	sum, err := s.EvalStats("bike")
	if err != nil {
		t.Fatal(err)
	}
	var fallback uint64
	for _, c := range sum.Cells {
		if c.Path == "fallback" {
			fallback += c.Attempts
		}
	}
	if fallback == 0 {
		t.Error("shadow fallback query left no fallback attempts")
	}
	if sum.Scored != 2 {
		t.Errorf("scored = %d, want 2", sum.Scored)
	}
}

func TestDriftTriggersEarlyRetrain(t *testing.T) {
	s, _ := evalStore(t, Options{
		SynchronousTraining: true,
		DriftThreshold:      50,
	})
	s.driftMinScores = 3
	// Serve a prediction, then contradict it hard: truth teleports far
	// from anything the model learned, so every scored error is huge and
	// the EWMA blows through the threshold once enough samples land.
	for i := 0; i < 8; i++ {
		now, err := s.Now("bike")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Predict("bike", now+1, 1); err != nil {
			t.Fatal(err)
		}
		far := hpm.Pt(50000+float64(i), 50000)
		if err := s.Observe("bike", far); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.DriftRetrains == 0 {
		t.Error("drift EWMA never triggered a retrain")
	}
	if fs := s.FleetStats(); fs.DriftRetrains == 0 {
		t.Error("fleet drift counter did not move")
	}
}

func TestAdaptiveRoutingPrefersMeasuredWinner(t *testing.T) {
	s, _ := evalStore(t, Options{AdaptiveRouting: true, AdaptiveMinSamples: 3})
	obj, err := s.get("bike", false)
	if err != nil {
		t.Fatal(err)
	}
	now, _ := s.Now("bike")
	tq := now + 2 // near horizon: the forward path would answer
	obj.mu.RLock()
	routed := s.routePath(obj, now, tq)
	obj.mu.RUnlock()
	if routed == evalq.PathFallback {
		t.Fatal("routed to fallback with no measurements")
	}

	// Seed the evaluator with a losing forward path and a winning
	// fallback at this horizon (synthetic timestamps far past the track
	// keep these entries from colliding with real scoring).
	for i := 0; i < 5; i++ {
		base := 100000 * (i + 1)
		obj.eval.Record(base, base+2, evalq.PathForward, hpm.Pt(9999, 9999))
		obj.eval.Record(base, base+2, evalq.PathFallback, hpm.Pt(0, 0))
		obj.eval.Observe(base+1, []hpm.Point{hpm.Pt(0, 0), hpm.Pt(0, 0)})
	}
	obj.mu.RLock()
	routed = s.routePath(obj, now, tq)
	obj.mu.RUnlock()
	if routed != evalq.PathFallback {
		t.Fatal("measured losing forward path not routed to fallback")
	}
	preds, err := s.Predict("bike", tq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) == 0 || preds[0].Path != hpm.PathFallback {
		t.Errorf("adaptive Predict did not answer via fallback: %+v", preds)
	}
}

// TestEvalHammerConcurrent drives concurrent ingest (which scores),
// queries (which record) and metric scrapes against one store — the
// -race workout for the eval path's locking.
func TestEvalHammerConcurrent(t *testing.T) {
	s, tr := evalStore(t, Options{})
	pts := tr.Slice(4*period, 8*period)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				now, err := s.Now("bike")
				if err != nil {
					continue
				}
				// Errors are expected here: the track can grow between Now
				// and Predict, pushing tq behind the current time. The
				// hammer is about locking, not query outcomes.
				s.Predict("bike", now+1+i%100, 1)
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.FleetStats()
			if _, err := s.EvalStats("bike"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for off := 0; off < len(pts); off += 7 {
		// Predict from the ingest goroutine too, so at least these
		// predictions deterministically mature against the next batch
		// regardless of how the racing readers get scheduled.
		if now, err := s.Now("bike"); err == nil {
			if _, err := s.Predict("bike", now+3, 1); err != nil {
				t.Fatal(err)
			}
		}
		end := off + 7
		if end > len(pts) {
			end = len(pts)
		}
		if err := s.ObserveBatch("bike", pts[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	fs := s.FleetStats()
	if fs.Eval.Scored == 0 {
		t.Error("hammer scored nothing")
	}
}
