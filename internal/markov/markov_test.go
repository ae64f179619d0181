package markov

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
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
	res, ok := predict(c, []uint32{2, 3}, 19, 20)
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
	res, ok = predict(c, []uint32{2, 3}, 19, 22)
	if !ok || res.Region != 2 || res.Steps != 3 {
		t.Fatalf("3-step walk: got ok=%v region %d steps %d, want 2/3", ok, res.Region, res.Steps)
	}
}

// predict is PredictEach for one time, with whether the chain answered.
func predict(c *Chain, recent []uint32, tc, tq int) (Result, bool) {
	var out [1]Result
	c.PredictEach(recent, tc, []int{tq}, out[:])
	return out[0], out[0].Steps > 0
}

// predictAll is PredictEach's answers over a buffer that starts dirty, so
// an entry PredictEach leaves unset shows.
func predictAll(c *Chain, recent []uint32, tc int, tqs []int) []Result {
	out := make([]Result, len(tqs))
	for i := range out {
		out[i] = Result{Region: 99, Steps: -1}
	}
	c.PredictEach(recent, tc, tqs, out)
	return out
}

// TestWalkDiesPartway: one walk answers a batch up to where it dies, on the
// step budget or on the probability floor; the nearer times keep their
// answers and the farther ones get the zero Result, as walks to each time
// alone do.
func TestWalkDiesPartway(t *testing.T) {
	// A deterministic cycle advances the clock one unit a step at
	// probability 1, so only the step budget ends the walk.
	cycle := cycleChain(t, Config{Period: 4}, 4, 5)
	// Two tied successors per region halve the probability at every step,
	// again one unit a step: 2^-29 clears minWalkProb, 2^-30 does not.
	halving := New(Config{Period: 2, MaxOrder: 1, MinCount: 1})
	for _, v := range []struct {
		t      int
		region uint32
	}{{0, 0}, {1, 1}, {2, 0}, {10, 0}, {11, 9}, {21, 1}, {22, 8}} {
		halving.Observe(v.t, v.region)
	}
	for _, c := range []struct {
		name     string
		chain    *Chain
		recent   []uint32
		tc, last int
	}{
		{"budget", cycle, []uint32{2, 3}, 19, maxWalkSteps},
		{"probability", halving, []uint32{0}, 30, 29},
	} {
		tqs := []int{c.tc + c.last + 1, c.tc + 1, c.tc + c.last, c.tc + c.last + 50, c.tc + c.last/2}
		out := predictAll(c.chain, c.recent, c.tc, tqs)
		for i, tq := range tqs {
			one, ok := predict(c.chain, c.recent, c.tc, tq)
			if out[i] != one || ok != (tq-c.tc <= c.last) {
				t.Fatalf("%s: at %d the batch answered %+v, alone %+v %v; want an answer up to %d",
					c.name, tq, out[i], one, ok, c.tc+c.last)
			}
		}
		if got := out[2]; got.Steps != c.last || c.name == "probability" && got.Prob != math.Ldexp(1, -c.last) {
			t.Fatalf("%s: the last answer is %+v after %d steps", c.name, got, c.last)
		}
	}
}

func TestBackoffToShorterContext(t *testing.T) {
	c := cycleChain(t, Config{Period: 4, MinCount: 1}, 4, 3)
	// Context (9, 3): region 9 was never seen, so order-2 context is
	// unknown; order-1 context (3,) answers.
	res, ok := predict(c, []uint32{9, 3}, 19, 20)
	if !ok {
		t.Fatal("chain did not back off to the order-1 context")
	}
	if res.Order != 1 || res.Region != 0 {
		t.Fatalf("got order %d region %d, want order 1 region 0", res.Order, res.Region)
	}
	// A fully unknown context cannot answer at any order.
	if _, ok := predict(c, []uint32{8, 9}, 19, 20); ok {
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
	if _, ok := predict(c, []uint32{0}, 16, 17); ok {
		t.Fatal("two observations should not clear MinCount 3")
	}
	c.Observe(16, 0)
	c.Observe(17, 1)
	if _, ok := predict(c, []uint32{0}, 24, 25); !ok {
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
	res, ok := predict(c, []uint32{0}, 16, 17)
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
	res, ok := predict(c, []uint32{3}, 13, 14)
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
	if _, ok := predict(c, []uint32{1}, 9, 10); ok {
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
	for _, nc := range nonCanonicalBlobs() {
		if _, err := Decode(nc.blob); err == nil {
			t.Errorf("%s: decoded without error", nc.name)
		}
	}
}

// TestDecodeHostileSuccessorCount: a context's successor count is a claim.
// One of 2^28 with nothing behind it used to size a map before the first
// successor was read — gigabytes for a sixteen-byte blob (found by the
// store's FuzzLoadSegment, in a chain blob with four bytes flipped).
func TestDecodeHostileSuccessorCount(t *testing.T) {
	blob := hostileSuccessorBlob()
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
			c.PredictEach([]uint32{uint32(i % 8)}, i, []int{i + 3, i + 1, i + 9}, make([]Result, 3))
			if i%100 == 0 {
				c.Stats()
				c.Encode()
			}
		}
	}()
	wg.Wait()
}

// hostileSuccessorBlob is TestDecodeHostileSuccessorCount's input: one
// context claiming 2^28 successors with nothing behind it.
func hostileSuccessorBlob() []byte {
	blob := append([]byte(chainMagic), chainVersion,
		3, 2, 0, 4, // order, min count, window, period
		0, 0, 0, 0, // no cursor, nothing observed, no history, no offsets
		1, 0) // one context, of order 0
	return binary.AppendUvarint(blob, 1<<28)
}

// FuzzDecode: the chain decoder, which the store runs on every chain blob
// of every segment at Open, never panics and never allocates past what its
// input can pay for; a chain it accepts re-encodes to bytes that decode to
// the same chain — the same bytes again, configuration and shape. Seeded
// with encoded chains (windowed and not, mid-cycle), cuts and bit flips of
// them, and the hostile successor count; then with chains Encode never
// writes, and one holding window events for a transition it does not
// count.
func FuzzDecode(f *testing.F) {
	for _, cfg := range []Config{{Period: 4}, {Period: 6, MaxOrder: 2, MinCount: 1, Window: 12}} {
		c := New(cfg)
		for i := 0; i < 40; i++ {
			c.Observe(i, uint32(i%cfg.Period+i/20))
		}
		enc := c.Encode()
		f.Add(enc)
		for _, cut := range []int{len(chainMagic) + 3, len(enc) / 2, len(enc) - 1} {
			f.Add(enc[:cut])
		}
		for at := 0; at < 8; at++ {
			flipped := bytes.Clone(enc)
			flipped[len(flipped)-1-at*len(flipped)/8] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Add(hostileSuccessorBlob())
	for _, nc := range nonCanonicalBlobs() {
		f.Add(nc.blob)
	}
	f.Add(uncountedEventBlob())
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := Decode(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+256*uint64(len(data)) {
			t.Fatalf("%d blob bytes allocated %d (err %v)", len(data), grew, err)
		}
		if err != nil {
			return
		}
		once := c.Encode()
		back, err := Decode(once)
		if err != nil {
			t.Fatalf("an accepted chain's re-encoding is refused: %v", err)
		}
		if twice := back.Encode(); !bytes.Equal(twice, once) {
			t.Fatalf("re-encoding is not a fixed point: %d bytes, then %d", len(once), len(twice))
		}
		if back.Config() != c.Config() || back.Stats() != c.Stats() {
			t.Fatalf("the chain decoded as %+v %+v comes back as %+v %+v", c.Config(), c.Stats(), back.Config(), back.Stats())
		}
	})
}

// TestExpiredUncountedEventKeepsCount: a decoded chain may hold a window
// event for a transition it does not count. Its expiry changes nothing; it
// used to decrement the live total regardless, so two such events drove
// Transitions from 1 past zero.
func TestExpiredUncountedEventKeepsCount(t *testing.T) {
	c, err := Decode(uncountedEventBlob())
	if err != nil {
		t.Fatal(err)
	}
	c.Observe(20, 5) // both events, at t=0, fall out of the window of 10
	st := c.Stats()
	if st.Transitions != 1 || st.Contexts != 1 || st.Pending != 0 {
		t.Fatalf("after expiry: %+v, want the one counted transition and nothing pending", st)
	}
	back, err := Decode(c.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if back.Stats() != st {
		t.Fatalf("re-decoded: %+v, want %+v", back.Stats(), st)
	}
}

// chainBlob is an encoded chain of order 2, min count 1, window 10 and
// period 4, with no cursor, history or offsets, whose contexts and events
// follow as given.
func chainBlob(contexts []byte, events ...byte) []byte {
	blob := append([]byte(chainMagic), chainVersion,
		2, 1, 10, 4, // order, min count, window, period
		0, 0, 0, 0) // no cursor, nothing observed, no history, no offsets
	blob = append(blob, contexts...)
	if len(events) == 0 {
		events = []byte{0}
	}
	return append(blob, events...)
}

// uncountedEventBlob counts (0)→1 once and holds two window events at
// t=0 for (0)→2, which it does not count.
func uncountedEventBlob() []byte {
	return chainBlob([]byte{1, 1, 0, 1, 1, 1}, 2, 0, 1, 0, 2, 0, 1, 0, 2)
}

// nonCanonicalBlobs are chains Encode never writes, each one step from
// a canonical chain counting (0)→1 and (0)→2 once each: Decode refuses
// a repeated or reordered context or successor, a zero count and a
// context of order 0.
func nonCanonicalBlobs() []struct {
	name string
	blob []byte
} {
	return []struct {
		name string
		blob []byte
	}{
		{"repeated context", chainBlob([]byte{2, 1, 0, 1, 1, 1, 1, 0, 1, 2, 1})},
		{"descending successors", chainBlob([]byte{1, 1, 0, 2, 2, 1, 1, 1})},
		{"zero count", chainBlob([]byte{1, 1, 0, 2, 1, 1, 2, 0})},
		{"order-0 context", chainBlob([]byte{1, 0, 2, 1, 1, 2, 1})},
	}
}

// TestChainMatchesReference drives the chain and refChain, the map-based
// chain it replaced, through the same seeded random sequences — located
// visits along a noisy cycle, gaps on either side of a period, window
// expiry and resets — over every order, min counts 1 and 2 and windows 0,
// 20 and 40.
// After every step both encode to the same bytes and report the same
// Stats, and every answer of a batch — unsorted, with a repeated time and
// with times at or before now — is the reference's walk to that time alone.
func TestChainMatchesReference(t *testing.T) {
	for order := 1; order <= MaxSupportedOrder; order++ {
		for minCount := 1; minCount <= 2; minCount++ {
			for _, window := range []int{0, 20, 40} {
				cfg := Config{MaxOrder: order, MinCount: minCount, Window: window, Period: 6}
				rng := rand.New(rand.NewPCG(uint64(order), uint64(10*minCount+window)))
				c, ref := New(cfg), newRefChain(cfg)
				now := 0
				for step := 0; step < 600; step++ {
					switch r := rng.IntN(100); {
					case r == 0:
						c.Reset()
						ref.reset()
					case r < 4:
						now += rng.IntN(2 * cfg.Period) // with the last visit's step, 1 to 2*Period+1
					case r < 80:
						region := uint32(now % cfg.Period)
						if rng.IntN(4) == 0 {
							region = uint32(rng.IntN(9))
						}
						c.Observe(now, region)
						ref.observe(now, region)
						now += 1 + rng.IntN(2)
					default:
						recent := make([]uint32, 1+rng.IntN(order+1))
						for i := range recent {
							recent[i] = uint32(rng.IntN(9))
						}
						tqs := make([]int, 1+rng.IntN(8))
						for i := range tqs {
							tqs[i] = now - 2 + rng.IntN(3*cfg.Period+3)
						}
						if len(tqs) > 1 {
							tqs[1] = tqs[0]
						}
						got := predictAll(c, recent, now, tqs)
						for i, tq := range tqs {
							want, _ := ref.predict(recent, now, tq)
							if got[i] != want {
								t.Fatalf("%+v step %d: PredictEach(%v, %d, %v)[%d] = %+v, reference at %d alone %+v",
									cfg, step, recent, now, tqs, i, got[i], tq, want)
							}
						}
					}
					if got, want := c.Stats(), ref.stats(); got != want {
						t.Fatalf("%+v step %d: Stats %+v, reference %+v", cfg, step, got, want)
					}
					if !bytes.Equal(c.Encode(), ref.encode()) {
						t.Fatalf("%+v step %d: Encode differs from the reference's", cfg, step)
					}
				}
			}
		}
	}
}

// refChain is the chain as nested maps, re-sorted at every encode: the
// reference TestChainMatchesReference holds the table to.
type refChain struct {
	cfg      Config
	counts   map[refKey]map[uint32]uint32
	offsets  map[uint32]uint32
	hist     []uint32
	lastT    int
	haveLast bool
	observed uint64
	live     uint64
	events   []refEvent
	head     int
}

type refKey struct {
	n uint8
	r [MaxSupportedOrder]uint32
}

type refEvent struct {
	t    int
	key  refKey
	next uint32
}

func newRefChain(cfg Config) *refChain {
	r := &refChain{cfg: cfg.withDefaults()}
	r.reset()
	return r
}

func (c *refChain) reset() {
	*c = refChain{cfg: c.cfg, counts: map[refKey]map[uint32]uint32{}, offsets: map[uint32]uint32{}}
}

func makeRefKey(ctx []uint32) refKey {
	k := refKey{n: uint8(len(ctx))}
	copy(k.r[:], ctx)
	return k
}

func (c *refChain) observe(t int, region uint32) {
	if c.cfg.Window > 0 {
		for cut := t - c.cfg.Window; c.head < len(c.events) && c.events[c.head].t <= cut; c.head++ {
			ev := c.events[c.head]
			if dist := c.counts[ev.key]; dist[ev.next] > 1 {
				dist[ev.next]--
			} else {
				delete(dist, ev.next)
				if len(dist) == 0 {
					delete(c.counts, ev.key)
				}
			}
			c.live--
		}
	}
	c.offsets[region] = uint32(mod(t, c.cfg.Period))
	if c.haveLast && t-c.lastT >= c.cfg.Period {
		c.hist = c.hist[:0]
	}
	for n := 1; n <= len(c.hist); n++ {
		k := makeRefKey(c.hist[len(c.hist)-n:])
		if c.counts[k] == nil {
			c.counts[k] = map[uint32]uint32{}
		}
		c.counts[k][region]++
		c.live++
		if c.cfg.Window > 0 {
			c.events = append(c.events, refEvent{t, k, region})
		}
	}
	c.hist = append(c.hist, region)
	if len(c.hist) > c.cfg.MaxOrder {
		c.hist = c.hist[1:]
	}
	c.lastT, c.haveLast = t, true
	c.observed++
}

func (c *refChain) stats() Stats {
	return Stats{Contexts: len(c.counts), Transitions: c.live, Observed: c.observed, Pending: len(c.events) - c.head}
}

func (c *refChain) predict(recent []uint32, tc, tq int) (Result, bool) {
	if tq <= tc || len(recent) == 0 {
		return Result{}, false
	}
	ctx := append([]uint32(nil), recent[max(0, len(recent)-c.cfg.MaxOrder):]...)
	t, prob := tc, 1.0
	var res Result
	for step := 0; t < tq; step++ {
		if step >= maxWalkSteps {
			return Result{}, false
		}
		next, p, order, ok := c.next(ctx)
		if !ok {
			return Result{}, false
		}
		if step == 0 {
			res.Order = order
		}
		off := int(c.offsets[next])
		dt := off - mod(t, c.cfg.Period)
		if dt <= 0 {
			dt += c.cfg.Period
		}
		t += dt
		if prob *= p; prob < minWalkProb {
			return Result{}, false
		}
		ctx = append(ctx, next)
		if len(ctx) > c.cfg.MaxOrder {
			ctx = ctx[1:]
		}
		res.Region, res.Offset, res.Steps = next, off, step+1
	}
	res.Prob = prob
	return res, true
}

func (c *refChain) next(ctx []uint32) (uint32, float64, int, bool) {
	for n := len(ctx); n >= 1; n-- {
		dist := c.counts[makeRefKey(ctx[len(ctx)-n:])]
		var best, bestCount uint32
		var total uint64
		for r, cnt := range dist {
			total += uint64(cnt)
			if cnt > bestCount || cnt == bestCount && r < best {
				best, bestCount = r, cnt
			}
		}
		if len(dist) > 0 && int(bestCount) >= c.cfg.MinCount {
			return best, float64(bestCount) / float64(total), n, true
		}
	}
	return 0, 0, 0, false
}

func (c *refChain) encode() []byte {
	buf := append([]byte(chainMagic), chainVersion)
	for _, v := range []int{c.cfg.MaxOrder, c.cfg.MinCount, c.cfg.Window, c.cfg.Period} {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	if c.haveLast {
		buf = binary.AppendUvarint(append(buf, 1), uint64(c.lastT))
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, c.observed)
	buf = binary.AppendUvarint(buf, uint64(len(c.hist)))
	for _, r := range c.hist {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	ids := make([]uint32, 0, len(c.offsets))
	for id := range c.offsets {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(c.offsets[id]))
	}
	keys := make([]refKey, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a.n < b.n || a.n == b.n && slices.Compare(a.r[:], b.r[:]) < 0
	})
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendRefKey(buf, k)
		succ := make([]uint32, 0, len(c.counts[k]))
		for r := range c.counts[k] {
			succ = append(succ, r)
		}
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		buf = binary.AppendUvarint(buf, uint64(len(succ)))
		for _, r := range succ {
			buf = binary.AppendUvarint(buf, uint64(r))
			buf = binary.AppendUvarint(buf, uint64(c.counts[k][r]))
		}
	}
	live := c.events[c.head:]
	buf = binary.AppendUvarint(buf, uint64(len(live)))
	for _, ev := range live {
		buf = binary.AppendUvarint(buf, uint64(ev.t))
		buf = appendRefKey(buf, ev.key)
		buf = binary.AppendUvarint(buf, uint64(ev.next))
	}
	return buf
}

func appendRefKey(buf []byte, k refKey) []byte {
	buf = append(buf, k.n)
	for _, r := range k.r[:k.n] {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// Stats summarizes a chain's shape.
type Stats struct {
	Contexts    int    // distinct contexts with live counts
	Transitions uint64 // live transition count across all contexts
	Observed    uint64 // located observations folded in (never decayed)
	Pending     int    // transitions awaiting window expiry
}

// Stats returns a snapshot of the chain's shape.
func (c *Chain) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := Stats{Contexts: c.contextsLocked(), Observed: c.observed, Pending: len(c.events) - c.head}
	for _, r := range c.rows {
		st.Transitions += uint64(r.count)
	}
	return st
}
