package store

import (
	"slices"

	"hpm"
)

// Answers between observations. An object is often asked the same thing
// again before it moves: a client polling a horizon, a dashboard re-asking
// a batch. Between two writes the object's model, track and chain do not
// change, so the answer to a repeated (query time, k) does not either. Each
// object keeps its latest answers in a memo, valid until its next write:
// every writer takes obj.mu through lockWrite, which clears the memo before
// anything changes, and readers publish only while they hold the read lock,
// so no entry outlives the state it was computed from.

// memoCap bounds one object's memo. It is a constant, not an option: no
// workload asks one object more than six distinct keys between two writes.
// When full, the oldest entry goes.
const memoCap = 8

// memo is one immutable snapshot of an object's answers, oldest first.
// Readers share the read lock, so they publish a new snapshot with a
// compare-and-swap instead of writing in place.
type memo []memoEntry

// memoEntry is one remembered answer, keyed by its query times and k. A
// point query is a batch of one time, so it shares the key of that batch.
type memoEntry struct {
	k   int
	tqs []int
	ans [][]hpm.Prediction
}

// find returns the answer remembered under the key, which the caller must
// not modify; ok is false on a miss. A nil memo is empty.
func (m *memo) find(tqs []int, k int) (ans [][]hpm.Prediction, ok bool) {
	if m == nil {
		return nil, false
	}
	for i := range *m {
		if e := &(*m)[i]; e.k == k && slices.Equal(e.tqs, tqs) {
			return e.ans, true
		}
	}
	return nil, false
}

// lockWrite takes obj's write lock and clears its memo. It is the only way
// obj.mu is write-locked, so no write can skip the clear. Readers hold the
// read lock while they publish, so none can store an answer computed before
// the write once the lock is taken.
func (obj *object) lockWrite() {
	obj.mu.Lock()
	if obj.memo.Load() != nil {
		obj.memo.Store(nil)
	}
}

// remember publishes e in obj's memo, evicting the oldest entry when full.
// A concurrent reader that already published the same key wins; the answers
// are equal. Called with obj.mu read-locked; e must not alias the caller's
// answer.
func (obj *object) remember(e memoEntry) {
	for {
		old := obj.memo.Load()
		if _, ok := old.find(e.tqs, e.k); ok {
			return
		}
		var keep memo
		if old != nil {
			keep = (*old)[max(0, len(*old)-memoCap+1):]
		}
		next := append(append(make(memo, 0, len(keep)+1), keep...), e)
		if obj.memo.CompareAndSwap(old, &next) {
			return
		}
	}
}

// ForgetAnswers drops the object's remembered answers, so its next query runs
// the model. Answers do not change; benchmarks call it to time the model
// path. Unknown ids are ignored.
func (s *Store) ForgetAnswers(id string) {
	if obj, err := s.get(id, false); err == nil {
		obj.memo.Store(nil)
	}
}

// answerLocked answers a batch from obj's memo, or runs the model and
// remembers the answer: one recent window, one answer per query time, each
// parked with the evaluator under its pattern route. Called with obj.mu
// read-locked.
func (s *Store) answerLocked(obj *object, now int, tqs []int, k int) ([][]hpm.Prediction, error) {
	out, ok := obj.memo.Load().find(tqs, k)
	if ok {
		s.reused.Add(uint64(len(tqs)))
		out = cloneAnswers(out)
	} else {
		var err error
		if out, err = obj.predictor.PredictBatch(s.recentLocked(obj), tqs, k); err != nil {
			return out, err
		}
		obj.remember(memoEntry{k: k, tqs: slices.Clone(tqs), ans: cloneAnswers(out)})
	}
	if obj.eval != nil {
		for i, preds := range out {
			s.recordPrediction(obj, now, tqs[i], s.patternPath(obj, now, tqs[i]), preds, nil)
		}
	}
	return out, nil
}

// cloneAnswers copies a batch answer into one backing array. A nil entry
// stays nil and an empty one empty, so the copy encodes to the same bytes.
func cloneAnswers(ans [][]hpm.Prediction) [][]hpm.Prediction {
	n := 0
	for _, a := range ans {
		n += len(a)
	}
	flat := make([]hpm.Prediction, 0, n)
	out := make([][]hpm.Prediction, len(ans))
	for i, a := range ans {
		if a != nil {
			flat = append(flat, a...)
			out[i] = flat[len(flat)-len(a) : len(flat) : len(flat)]
		}
	}
	return out
}
