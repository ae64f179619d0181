package store

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"hpm"
)

// incrementalOpts is the standard configuration for the model-update
// tests.
func incrementalOpts() Options {
	return Options{
		Config:          hpm.Config{Period: period},
		MinTrainPeriods: 3,
	}
}

// streamPeriods feeds periods [from, to) of a dataset into the store in
// per-period batches, so every completed period triggers the update
// policy exactly as a live stream would, and flushes after each, so every
// period's effect — a train included — is visible before the next.
func streamPeriods(t testing.TB, s *Store, id string, seed int64, from, to int) {
	t.Helper()
	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, seed)
	spec.Period = s.Period()
	spec.SubTrajectories = to
	pts := hpm.GenerateDataset(spec).Points()
	for p := from; p < to; p++ {
		if err := s.ObserveBatch(id, pts[p*period:(p+1)*period]); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainPolicy pins the store's one model-update policy: one train at
// MinTrainPeriods, then an Extend on every newly completed period — the
// predictor value survives every one, including a period that arrives far
// from anything the model learned, which is absorbed like any other.
func TestTrainPolicy(t *testing.T) {
	for _, tc := range []struct {
		name       string
		newPeriods int // streamed after the first train
		farAt      int // new period that arrives as contradicting truth (0 = none)
	}{
		{name: "extends only", newPeriods: 6},
		{name: "far period extends", newPeriods: 2, farAt: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := testStore(t, incrementalOpts())
			streamPeriods(t, s, "bike", 9, 0, 3)
			p, err := s.Predictor("bike")
			if err != nil || p == nil {
				t.Fatal("no predictor after initial train")
			}
			for n := 1; n <= tc.newPeriods; n++ {
				if n == tc.farAt {
					// Park predictions over the coming period, then let the
					// whole period arrive far from anything the model
					// learned: scored, and extended into the model.
					if _, _, err := s.PredictBatchAheadContext(context.Background(), "bike", []int{1, 2, 3, 4, 5}, 1); err != nil {
						t.Fatal(err)
					}
					far := make([]hpm.Point, period)
					for i := range far {
						far[i] = hpm.Pt(50000+float64(i), 50000)
					}
					if err := s.ObserveBatch("bike", far); err != nil {
						t.Fatal(err)
					}
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
				} else {
					streamPeriods(t, s, "bike", 9, 2+n, 3+n)
				}
				if cur, _ := s.Predictor("bike"); cur != p {
					t.Fatalf("new period %d replaced the predictor", n)
				}
			}
			st, _ := s.Stats("bike")
			if st.Modeled != 3+tc.newPeriods {
				t.Errorf("modeled %d, want %d", st.Modeled, 3+tc.newPeriods)
			}
			fs := s.FleetStats()
			if fs.Trains != 1 || fs.Extends != uint64(tc.newPeriods) {
				t.Errorf("trains %d extends %d, want 1 and %d", fs.Trains, fs.Extends, tc.newPeriods)
			}
			if tc.farAt > 0 && fs.Eval.Scored == 0 {
				t.Error("the far period scored none of the parked predictions")
			}
			if fs.ExtendSeconds <= 0 {
				t.Errorf("extend seconds not accumulated: %v", fs.ExtendSeconds)
			}
			if _, preds, err := predictAhead(s, "bike", 10, 1); err != nil || len(preds) != 1 {
				t.Fatalf("predict after updates: %v, %d preds", err, len(preds))
			}
		})
	}
}

// TestRetainPeriodsTrimsTrack: a retention window keeps per-object memory
// flat — the track is trimmed behind the model while every externally
// visible timestamp stays absolute.
func TestRetainPeriodsTrimsTrack(t *testing.T) {
	opts := incrementalOpts()
	opts.Config.RetainPeriods = 4
	opts.MaxRecent = 50
	s := testStore(t, opts)
	const periods = 12
	streamPeriods(t, s, "bike", 13, 0, periods)

	st, err := s.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != periods*period {
		t.Errorf("Points = %d, want absolute %d", st.Points, periods*period)
	}
	if st.RetainedPoints != opts.Config.RetainPeriods*period {
		t.Errorf("RetainedPoints = %d, want window %d", st.RetainedPoints, opts.Config.RetainPeriods*period)
	}
	if st.Periods != periods || st.Modeled != periods {
		t.Errorf("periods %d modeled %d, want %d", st.Periods, st.Modeled, periods)
	}
	now, err := s.Now("bike")
	if err != nil || now != periods*period-1 {
		t.Fatalf("Now = %d, %v; want absolute %d", now, err, periods*period-1)
	}
	if preds, err := predict(s, "bike", now+10, 1); err != nil || len(preds) != 1 {
		t.Fatalf("predict on trimmed track: %v, %d preds", err, len(preds))
	}
	if _, err := s.PredictRangeContext(context.Background(), "bike", now+1, now+5); err != nil {
		t.Fatalf("range predict on trimmed track: %v", err)
	}
}

// TestSnapshotRoundTripTrimmedBase: a snapshot of a trimmed object must
// restore its absolute timeline (the record carries the track base), not
// restart it at zero.
func TestSnapshotRoundTripTrimmedBase(t *testing.T) {
	opts := incrementalOpts()
	opts.Config.RetainPeriods = 3
	opts.MaxRecent = 40
	s := durableStore(t, opts)
	const periods = 10
	streamPeriods(t, s, "bike", 17, 0, periods)
	before, _ := s.Stats("bike")
	if before.RetainedPoints >= before.Points {
		t.Fatalf("track not trimmed: %+v", before)
	}
	back := reopen(t, s)
	if !bytes.Equal(fleetBytes(t, back), fleetBytes(t, s)) {
		t.Error("the reopened fleet re-encodes differently")
	}
	after, err := back.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if after.Points != before.Points || after.RetainedPoints != before.RetainedPoints ||
		after.Periods != before.Periods || after.Modeled != before.Modeled {
		t.Errorf("stats changed across snapshot:\nbefore %+v\nafter  %+v", before, after)
	}
	now, err := back.Now("bike")
	if err != nil || now != periods*period-1 {
		t.Fatalf("restored Now = %d, %v; want %d", now, err, periods*period-1)
	}
	if _, err := predict(back, "bike", now+10, 1); err != nil {
		t.Fatalf("predict on restored trimmed object: %v", err)
	}
	// The restored object keeps extending on its absolute timeline.
	streamPeriods(t, back, "bike", 17, periods, periods+2)
	st, _ := back.Stats("bike")
	if st.Points != (periods+2)*period || st.Modeled != periods+2 {
		t.Errorf("post-restore extend: %+v", st)
	}
}

// TestDurableReplayTrimmedBase: WAL offsets are absolute timestamps, so
// records written after a retention trim replay correctly onto the
// shorter restored track.
func TestDurableReplayTrimmedBase(t *testing.T) {
	dir := t.TempDir()
	opts := incrementalOpts()
	opts.Config.RetainPeriods = 3
	opts.MaxRecent = 40
	opts.WALNoSync = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const snapAt = 8
	streamPeriods(t, s, "bike", 21, 0, snapAt)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Two more periods land only in the WAL, then the process dies.
	streamPeriods(t, s, "bike", 21, snapAt, snapAt+2)
	crash(s)

	back, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	st, err := back.Stats("bike")
	if err != nil {
		t.Fatal(err)
	}
	if st.Points != (snapAt+2)*period {
		t.Errorf("recovered Points = %d, want %d", st.Points, (snapAt+2)*period)
	}
	if st.Modeled != snapAt+2 {
		t.Errorf("recovered Modeled = %d, want %d", st.Modeled, snapAt+2)
	}
	now, _ := back.Now("bike")
	if now != (snapAt+2)*period-1 {
		t.Errorf("recovered Now = %d, want %d", now, (snapAt+2)*period-1)
	}
	if _, err := predict(back, "bike", now+10, 1); err != nil {
		t.Fatalf("predict after replay onto trimmed base: %v", err)
	}
}

// stale reports whether a query failed only because the writer advanced
// the track between the reader's Now and its query.
func stale(err error) bool {
	return err == ErrUntrained ||
		strings.Contains(err.Error(), "not after current time") ||
		strings.Contains(err.Error(), "invalid for current time")
}

// TestExtendPredictHammer interleaves extend-triggering observes with
// concurrent predictions on the same object — the incremental update
// path mutates the live model under the object lock, and this (under
// -race) is the proof queries never see it mid-surgery.
func TestExtendPredictHammer(t *testing.T) {
	opts := incrementalOpts()
	opts.Config.RetainPeriods = 4
	s := testStore(t, opts)
	streamPeriods(t, s, "bike", 25, 0, 3) // trained

	spec := hpm.DefaultDatasetSpec(hpm.DatasetBike, 25)
	spec.Period = period
	spec.SubTrajectories = 12
	pts := hpm.GenerateDataset(spec).Points()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	done := make(chan struct{})
	// Writer: stream the rest in small batches so several period
	// boundaries (and therefore inline Extends) happen mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for off := 3 * period; off < len(pts); off += 17 {
			end := off + 17
			if end > len(pts) {
				end = len(pts)
			}
			if err := s.ObserveBatch("bike", pts[off:end]); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				now, err := s.Now("bike")
				if err != nil {
					errs <- err
					return
				}
				// The writer may advance the track between Now and the
				// query, invalidating the query time; that is an input
				// error, not a race.
				if _, err := predict(s, "bike", now+10, 1); err != nil && !stale(err) {
					errs <- err
					return
				}
				if _, err := s.PredictBatchContext(context.Background(), "bike", []int{now + 5, now + 15}, 1); err != nil && !stale(err) {
					errs <- err
					return
				}
				if _, err := s.Stats("bike"); err != nil {
					errs <- err
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
	st, _ := s.Stats("bike")
	if st.Modeled != 12 {
		t.Errorf("modeled %d after hammer, want 12", st.Modeled)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
}
