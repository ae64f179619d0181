package markov

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"
)

// cycleChain folds reps laps of the region cycle 0→1→2→...→n-1 into a
// fresh chain, one region per time unit.
func cycleChain(t *testing.T, cfg Config, n, reps int) *Chain {
	t.Helper()
	c := New(cfg)
	for rep := 0; rep < reps; rep++ {
		for i := 0; i < n; i++ {
			c.Observe(rep*n+i, uint32(i))
		}
	}
	return c
}

func TestPredictFollowsCycle(t *testing.T) {
	c := cycleChain(t, Config{Period: 4}, 4, 5)
	// Context ...2,3 at tc=19 (offset 3); next is region 0 at offset 0.
	res, ok := c.Predict([]uint32{2, 3}, 19, 20)
	if !ok {
		t.Fatal("chain did not answer")
	}
	if res.Region != 0 || res.Offset != 0 || res.Steps != 1 {
		t.Fatalf("got region %d offset %d steps %d, want 0/0/1", res.Region, res.Offset, res.Steps)
	}
	if res.Prob != 1 {
		t.Fatalf("deterministic cycle should predict with prob 1, got %g", res.Prob)
	}
	if res.Order != 2 {
		t.Fatalf("full 2-region context should match at order 2, got %d", res.Order)
	}
	// A longer horizon walks multiple steps around the cycle.
	res, ok = c.Predict([]uint32{2, 3}, 19, 22)
	if !ok || res.Region != 2 || res.Steps != 3 {
		t.Fatalf("3-step walk: got ok=%v region %d steps %d, want 2/3", ok, res.Region, res.Steps)
	}
}

func TestBackoffToShorterContext(t *testing.T) {
	c := cycleChain(t, Config{Period: 4, MinCount: 1}, 4, 3)
	// Context (9, 3): region 9 was never seen, so order-2 context is
	// unknown; order-1 context (3,) answers.
	res, ok := c.Predict([]uint32{9, 3}, 19, 20)
	if !ok {
		t.Fatal("chain did not back off to the order-1 context")
	}
	if res.Order != 1 || res.Region != 0 {
		t.Fatalf("got order %d region %d, want order 1 region 0", res.Order, res.Region)
	}
	// A fully unknown context cannot answer at any order.
	if _, ok := c.Predict([]uint32{8, 9}, 19, 20); ok {
		t.Fatal("unknown context should not answer")
	}
}

func TestMinCountGatesThinContexts(t *testing.T) {
	cfg := Config{Period: 8, MaxOrder: 1, MinCount: 3}
	c := New(cfg)
	// Two transitions 0→1: below MinCount 3.
	c.Observe(0, 0)
	c.Observe(1, 1)
	c.Observe(8, 0)
	c.Observe(9, 1)
	if _, ok := c.Predict([]uint32{0}, 16, 17); ok {
		t.Fatal("two observations should not clear MinCount 3")
	}
	c.Observe(16, 0)
	c.Observe(17, 1)
	if _, ok := c.Predict([]uint32{0}, 24, 25); !ok {
		t.Fatal("three observations should clear MinCount 3")
	}
}

func TestTieBreakSmallerRegion(t *testing.T) {
	cfg := Config{Period: 8, MaxOrder: 1, MinCount: 1}
	c := New(cfg)
	// 0→5 and 0→2 once each: the tie breaks toward region 2.
	c.Observe(0, 0)
	c.Observe(1, 5)
	c.Observe(8, 0)
	c.Observe(9, 2)
	res, ok := c.Predict([]uint32{0}, 16, 17)
	if !ok || res.Region != 2 {
		t.Fatalf("got ok=%v region %d, want region 2 (smaller id wins ties)", ok, res.Region)
	}
	if res.Prob != 0.5 {
		t.Fatalf("tie should carry prob 0.5, got %g", res.Prob)
	}
}

func TestWindowDecay(t *testing.T) {
	cfg := Config{Period: 4, MaxOrder: 1, MinCount: 1, Window: 8}
	c := New(cfg)
	// One lap 0→1→2→3, then a different successor for region 3 later.
	for i := 0; i < 4; i++ {
		c.Observe(i, uint32(i))
	}
	if st := c.Stats(); st.Transitions != 3 {
		t.Fatalf("transitions = %d, want 3", st.Transitions)
	}
	// At t=12, everything observed at t<=4 has expired.
	c.Observe(12, 3)
	c.Observe(13, 9)
	st := c.Stats()
	if st.Transitions != 1 {
		t.Fatalf("after decay: transitions = %d, want 1 (only 3→9)", st.Transitions)
	}
	res, ok := c.Predict([]uint32{3}, 13, 14)
	if !ok || res.Region != 9 {
		t.Fatalf("got ok=%v region %d, want the surviving successor 9", ok, res.Region)
	}
}

func TestGapResetsContext(t *testing.T) {
	cfg := Config{Period: 4, MaxOrder: 2, MinCount: 1}
	c := New(cfg)
	c.Observe(0, 0)
	c.Observe(1, 1)
	// A gap of a full period: the old context is stale, so the next
	// observation must not record a 1→7 transition.
	c.Observe(6, 7)
	if _, ok := c.Predict([]uint32{1}, 9, 10); ok {
		t.Fatal("gap-straddling transition should not have been recorded")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, cfg := range []Config{
		{Period: 6},
		{Period: 6, MaxOrder: 2, MinCount: 1, Window: 12},
	} {
		c := New(cfg)
		for i := 0; i < 40; i++ {
			c.Observe(i, uint32(i%6+i/20)) // shifting cycle: non-trivial counts
		}
		enc := c.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got.Encode(), enc) {
			t.Fatalf("cfg %+v: re-encode differs from original", cfg)
		}
		if got.Config() != c.Config() {
			t.Fatalf("cfg round-trip: got %+v want %+v", got.Config(), c.Config())
		}
		// The decoded chain must keep evolving identically: observe the
		// same suffix into both and compare bytes again — the property WAL
		// replay equivalence rests on.
		for i := 40; i < 60; i++ {
			c.Observe(i, uint32(i%6))
			got.Observe(i, uint32(i%6))
		}
		if !bytes.Equal(got.Encode(), c.Encode()) {
			t.Fatalf("cfg %+v: decoded chain diverged under identical observes", cfg)
		}
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a := cycleChain(t, Config{Period: 5, Window: 30}, 5, 8)
	b := cycleChain(t, Config{Period: 5, Window: 30}, 5, 8)
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("identical observation sequences encoded differently")
	}
	if !bytes.Equal(a.Encode(), a.Encode()) {
		t.Fatal("repeated Encode of one chain differs (map-order leak)")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	c := cycleChain(t, Config{Period: 4}, 4, 3)
	enc := c.Encode()
	if _, err := Decode(enc[:len(enc)/2]); err == nil {
		t.Fatal("truncated blob decoded without error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := Decode(bad); err == nil {
		t.Fatal("bad magic decoded without error")
	}
}

// TestDecodeHostileSuccessorCount: a context's successor count is a claim.
// One of 2^28 with nothing behind it used to size a map before the first
// successor was read — gigabytes for a sixteen-byte blob (found by the
// store's FuzzLoadSegment, in a chain blob with four bytes flipped).
func TestDecodeHostileSuccessorCount(t *testing.T) {
	blob := append([]byte(chainMagic), chainVersion,
		3, 2, 0, 4, // order, min count, window, period
		0, 0, 0, 0, // no cursor, nothing observed, no history, no offsets
		1, 0) // one context, of order 0
	blob = binary.AppendUvarint(blob, 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(blob)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a blob cut short behind a hostile count decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("%d blob bytes allocated %d before failing with %q", len(blob), grew, err)
	}
}

func TestResetClears(t *testing.T) {
	c := cycleChain(t, Config{Period: 4, Window: 100}, 4, 3)
	c.Reset()
	st := c.Stats()
	if st.Contexts != 0 || st.Transitions != 0 || st.Observed != 0 || st.Pending != 0 {
		t.Fatalf("Reset left state behind: %+v", st)
	}
	fresh := New(Config{Period: 4, Window: 100})
	if !bytes.Equal(c.Encode(), fresh.Encode()) {
		t.Fatal("reset chain does not encode like a fresh one")
	}
}

func TestConcurrentObservePredict(t *testing.T) {
	c := New(Config{Period: 8, Window: 64})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Observe(i, uint32(i%8))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			c.Predict([]uint32{uint32(i % 8)}, i, i+3)
			if i%100 == 0 {
				c.Stats()
				c.Encode()
			}
		}
	}()
	wg.Wait()
}
