package core

import (
	"testing"

	"hpm/internal/hpa"
	"hpm/internal/markov"
	"hpm/internal/trajectory"
)

// TestMarkovAnswerBatch: the chain's answers to a batch — unsorted, with a
// repeated time — are its answers to each time asked alone from the same
// window. A chain whose successor lies past the region table, as a stale
// chain's can between a region change and its rebuild, answers nothing.
func TestMarkovAnswerBatch(t *testing.T) {
	m, subs, spec := bikeModel(t)
	answered := 0
	var last []trajectory.TimedPoint
	for _, sub := range subs[40:44] {
		for _, end := range []int{20, 55, 90} {
			recent := make([]trajectory.TimedPoint, 10)
			for i := range recent {
				off := end - len(recent) + 1 + i
				recent[i] = trajectory.TimedPoint{T: sub.Index*spec.Period + off, Loc: sub.Points[off]}
			}
			tc := recent[len(recent)-1].T
			tqs := []int{tc + 150, tc + 1, tc + 30, tc + 1, tc + 7, tc + 300}
			batch := make([]hpa.Prediction, len(tqs))
			m.markovAnswer(recent, tqs, batch)
			for i, tq := range tqs {
				var one [1]hpa.Prediction
				m.markovAnswer(recent, []int{tq}, one[:])
				if batch[i] != one[0] {
					t.Fatalf("tc %d: the batch answered %+v at %d, the time alone %+v", tc, batch[i], tq, one[0])
				}
				if one[0] != (hpa.Prediction{}) {
					answered++
					last = recent
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("the chain answered no time")
	}

	tc := last[len(last)-1].T
	at, ok := m.regions.Locate(coreMod(tc, spec.Period), last[len(last)-1].Loc)
	if !ok {
		t.Fatal("the last answered window does not end in a region")
	}
	stale := markov.New(m.chain.Config())
	for i := range 6 {
		region := uint32(at.ID)
		if i%2 == 1 {
			region = uint32(m.regions.Len())
		}
		stale.Observe(i, region)
	}
	if err := m.LoadMarkov(stale.Encode()); err != nil {
		t.Fatal(err)
	}
	// The walk's first step, the only answer at tc+1, is the stale region.
	var out [1]hpa.Prediction
	if m.markovAnswer(last, []int{tc + 1}, out[:]); out[0] != (hpa.Prediction{}) {
		t.Fatalf("a successor past the region table answered %+v", out[0])
	}
}
