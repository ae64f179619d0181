// Package markov implements a variable-order Markov chain over the
// frequent regions the pattern miner discovers — the NLPMM-style third
// answering path of the hybrid predictor.
//
// The chain observes the object's located region sequence one visit at a
// time: each located observation records a transition from every context
// of order 1..MaxOrder ending at the previous visit to the new region, so
// an update costs O(MaxOrder) map increments — no batch rebuild. A query
// walks the chain greedily from the query's recent region context,
// escaping to shorter contexts when a long one has no sufficiently
// supported successor (back-off), and advancing an implied clock by the
// period offsets of the predicted regions until the query time is
// reached. Counts optionally decay over a sliding window: every recorded
// transition is remembered with its timestamp, and transitions older than
// Window time units are decremented back out — the same retention policy
// the store applies to tracks via RetainPeriods.
//
// Chains serialize deterministically (contexts, successor distributions
// and pending-window events in sorted/insertion order), so a chain folded
// from the same observation sequence always encodes to the same bytes —
// the property the store's crash-recovery bit-identity tests rely on.
package markov

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
)

// MaxSupportedOrder bounds the context length so context keys stay
// fixed-size comparable values.
const MaxSupportedOrder = 4

// Defaults for Config fields left at their zero value.
const (
	DefaultMaxOrder = 3
	DefaultMinCount = 2
)

const (
	chainMagic   = "HPMC"
	chainVersion = 1

	// maxWalkSteps bounds a prediction's greedy walk; each step advances
	// the implied clock by at least one time unit, so horizons beyond the
	// budget simply go unanswered (the motion fallback takes them).
	maxWalkSteps = 1024
	// minWalkProb abandons a walk whose cumulative probability has decayed
	// to noise — a long chain of near-ties predicts nothing useful.
	minWalkProb = 1e-9
)

// Config tunes a chain.
type Config struct {
	// MaxOrder is K, the longest context a transition is recorded (and
	// matched) under. 0 defaults to DefaultMaxOrder; capped at
	// MaxSupportedOrder.
	MaxOrder int
	// MinCount is the minimum transition count a context's best successor
	// needs to answer; thinner contexts escape to the next shorter one.
	// 0 defaults to DefaultMinCount.
	MinCount int
	// Window is the sliding retention window in time units; transitions
	// recorded more than Window units before the newest observation are
	// decayed back out. 0 retains everything.
	Window int
	// Period is the movement period T, used for offset arithmetic in the
	// prediction walk. Required (0 defaults to 1, which disables the
	// walk's wrap logic in a degenerate but safe way).
	Period int
}

func (c Config) withDefaults() Config {
	if c.MaxOrder <= 0 {
		c.MaxOrder = DefaultMaxOrder
	}
	if c.MaxOrder > MaxSupportedOrder {
		c.MaxOrder = MaxSupportedOrder
	}
	if c.MinCount <= 0 {
		c.MinCount = DefaultMinCount
	}
	if c.Window < 0 {
		c.Window = 0
	}
	if c.Period <= 0 {
		c.Period = 1
	}
	return c
}

// ctxKey is a context of n region visits, most recent last — a fixed-size
// comparable map key.
type ctxKey struct {
	n uint8
	r [MaxSupportedOrder]uint32
}

func makeKey(ctx []uint32) ctxKey {
	var k ctxKey
	k.n = uint8(len(ctx))
	copy(k.r[:], ctx)
	return k
}

// event is one recorded transition awaiting window expiry.
type event struct {
	t    int
	key  ctxKey
	next uint32
}

// Result is one prediction from the chain.
type Result struct {
	Region uint32  // predicted region id
	Offset int     // the region's time offset within the period
	Prob   float64 // product of the walk's step probabilities
	Order  int     // context order the first step matched after back-off
	Steps  int     // walk length in region visits
}

// Stats summarizes a chain's shape.
type Stats struct {
	Contexts    int    // distinct contexts with live counts
	Transitions uint64 // live transition count across all contexts
	Observed    uint64 // located observations folded in (never decayed)
	Pending     int    // transitions awaiting window expiry
}

// Chain is a variable-order region-transition chain. All methods are safe
// for concurrent use.
type Chain struct {
	mu  sync.RWMutex
	cfg Config

	counts  map[ctxKey]map[uint32]uint32
	offsets map[uint32]uint32 // region id -> period offset, learned at observe
	hist    []uint32          // last MaxOrder located regions, most recent last

	lastT    int
	haveLast bool
	observed uint64
	live     uint64 // transitions currently counted

	events []event // window-expiry log, events[head:] live, insertion order
	head   int
}

// New returns an empty chain.
func New(cfg Config) *Chain {
	cfg = cfg.withDefaults()
	return &Chain{
		cfg:     cfg,
		counts:  make(map[ctxKey]map[uint32]uint32),
		offsets: make(map[uint32]uint32),
		hist:    make([]uint32, 0, cfg.MaxOrder),
	}
}

// Config returns the chain's configuration after defaulting.
func (c *Chain) Config() Config { return c.cfg }

// Observe folds one located region visit at absolute time t. Timestamps
// must be non-decreasing across calls; a gap of a full period or more
// resets the context (the object was untracked or unlocated too long for
// the old context to mean anything).
func (c *Chain) Observe(t int, region uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.Window > 0 {
		c.expireLocked(t)
	}
	c.offsets[region] = uint32(mod(t, c.cfg.Period))
	if c.haveLast && t-c.lastT >= c.cfg.Period {
		c.hist = c.hist[:0]
	}
	for n := 1; n <= len(c.hist); n++ {
		k := makeKey(c.hist[len(c.hist)-n:])
		c.bumpLocked(k, region, true)
		if c.cfg.Window > 0 {
			c.events = append(c.events, event{t: t, key: k, next: region})
		}
	}
	if len(c.hist) == c.cfg.MaxOrder {
		copy(c.hist, c.hist[1:])
		c.hist[len(c.hist)-1] = region
	} else {
		c.hist = append(c.hist, region)
	}
	c.lastT = t
	c.haveLast = true
	c.observed++
}

// bumpLocked increments (up) or decrements a transition count, pruning
// empty distributions so the context map only holds live state.
func (c *Chain) bumpLocked(k ctxKey, next uint32, up bool) {
	dist := c.counts[k]
	if up {
		if dist == nil {
			dist = make(map[uint32]uint32)
			c.counts[k] = dist
		}
		dist[next]++
		c.live++
		return
	}
	if dist == nil {
		return
	}
	if dist[next] <= 1 {
		delete(dist, next)
		if len(dist) == 0 {
			delete(c.counts, k)
		}
	} else {
		dist[next]--
	}
	c.live--
}

// expireLocked decays transitions recorded at or before t-Window.
func (c *Chain) expireLocked(t int) {
	cut := t - c.cfg.Window
	for c.head < len(c.events) && c.events[c.head].t <= cut {
		ev := c.events[c.head]
		c.bumpLocked(ev.key, ev.next, false)
		c.head++
	}
	if c.head > 0 && c.head*2 >= len(c.events) {
		n := copy(c.events, c.events[c.head:])
		c.events = c.events[:n]
		c.head = 0
	}
}

// Reset returns the chain to its empty state, keeping the configuration.
func (c *Chain) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.counts)
	clear(c.offsets)
	c.hist = c.hist[:0]
	c.events = c.events[:0]
	c.head = 0
	c.lastT = 0
	c.haveLast = false
	c.observed = 0
	c.live = 0
}

// Stats returns a snapshot of the chain's shape.
func (c *Chain) Stats() Stats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return Stats{
		Contexts:    len(c.counts),
		Transitions: c.live,
		Observed:    c.observed,
		Pending:     len(c.events) - c.head,
	}
}

// Predict walks the chain from the query's recent located region sequence
// (most recent last, ending at current time tc) until the implied clock
// reaches query time tq. Each step takes the best-supported successor of
// the longest matching context — backing off to shorter contexts when the
// long one is unknown or too thin — and advances the clock to the
// successor region's period offset. Returns false when the chain cannot
// answer: no context matches at any order, the walk budget runs out, or
// the cumulative probability decays to noise.
func (c *Chain) Predict(recent []uint32, tc, tq int) (Result, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if tq <= tc || len(recent) == 0 {
		return Result{}, false
	}
	var buf [MaxSupportedOrder]uint32
	start := len(recent) - c.cfg.MaxOrder
	if start < 0 {
		start = 0
	}
	ctx := append(buf[:0], recent[start:]...)

	t := tc
	prob := 1.0
	var res Result
	for step := 0; t < tq; step++ {
		if step >= maxWalkSteps {
			return Result{}, false
		}
		next, p, order, ok := c.nextLocked(ctx)
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
		prob *= p
		if prob < minWalkProb {
			return Result{}, false
		}
		if len(ctx) == c.cfg.MaxOrder {
			copy(ctx, ctx[1:])
			ctx[len(ctx)-1] = next
		} else {
			ctx = append(ctx, next)
		}
		res.Region, res.Offset, res.Steps = next, off, step+1
	}
	res.Prob = prob
	return res, true
}

// nextLocked picks the successor of the longest context with a
// sufficiently supported best successor, escaping to shorter contexts.
// Ties break toward the smaller region id, so the answer is deterministic
// for a given chain state.
func (c *Chain) nextLocked(ctx []uint32) (next uint32, p float64, order int, ok bool) {
	for n := len(ctx); n >= 1; n-- {
		dist := c.counts[makeKey(ctx[len(ctx)-n:])]
		if len(dist) == 0 {
			continue
		}
		var best, bestCount uint32
		var total uint64
		first := true
		for r, cnt := range dist {
			total += uint64(cnt)
			if first || cnt > bestCount || (cnt == bestCount && r < best) {
				best, bestCount, first = r, cnt, false
			}
		}
		if int(bestCount) < c.cfg.MinCount {
			continue
		}
		return best, float64(bestCount) / float64(total), n, true
	}
	return 0, 0, 0, false
}

// Encode serializes the chain deterministically: configuration, cursor
// state, region offsets and context distributions in sorted order, and
// the live window-event log in insertion order.
func (c *Chain) Encode() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	buf := make([]byte, 0, 64+16*len(c.counts)+16*(len(c.events)-c.head))
	buf = append(buf, chainMagic...)
	buf = append(buf, chainVersion)
	buf = binary.AppendUvarint(buf, uint64(c.cfg.MaxOrder))
	buf = binary.AppendUvarint(buf, uint64(c.cfg.MinCount))
	buf = binary.AppendUvarint(buf, uint64(c.cfg.Window))
	buf = binary.AppendUvarint(buf, uint64(c.cfg.Period))
	if c.haveLast {
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, uint64(c.lastT))
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, c.observed)
	buf = binary.AppendUvarint(buf, uint64(len(c.hist)))
	for _, r := range c.hist {
		buf = binary.AppendUvarint(buf, uint64(r))
	}

	offIDs := make([]uint32, 0, len(c.offsets))
	for id := range c.offsets {
		offIDs = append(offIDs, id)
	}
	sort.Slice(offIDs, func(i, j int) bool { return offIDs[i] < offIDs[j] })
	buf = binary.AppendUvarint(buf, uint64(len(offIDs)))
	for _, id := range offIDs {
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(c.offsets[id]))
	}

	keys := make([]ctxKey, 0, len(c.counts))
	for k := range c.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return lessKey(keys[i], keys[j]) })
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = appendKey(buf, k)
		dist := c.counts[k]
		succ := make([]uint32, 0, len(dist))
		for r := range dist {
			succ = append(succ, r)
		}
		sort.Slice(succ, func(i, j int) bool { return succ[i] < succ[j] })
		buf = binary.AppendUvarint(buf, uint64(len(succ)))
		for _, r := range succ {
			buf = binary.AppendUvarint(buf, uint64(r))
			buf = binary.AppendUvarint(buf, uint64(dist[r]))
		}
	}

	live := c.events[c.head:]
	buf = binary.AppendUvarint(buf, uint64(len(live)))
	for _, ev := range live {
		buf = binary.AppendUvarint(buf, uint64(ev.t))
		buf = appendKey(buf, ev.key)
		buf = binary.AppendUvarint(buf, uint64(ev.next))
	}
	return buf
}

func lessKey(a, b ctxKey) bool {
	if a.n != b.n {
		return a.n < b.n
	}
	for i := range a.r {
		if a.r[i] != b.r[i] {
			return a.r[i] < b.r[i]
		}
	}
	return false
}

func appendKey(buf []byte, k ctxKey) []byte {
	buf = append(buf, k.n)
	for i := 0; i < int(k.n); i++ {
		buf = binary.AppendUvarint(buf, uint64(k.r[i]))
	}
	return buf
}

// decoder walks an encoded chain.
type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = errors.New("markov: truncated chain")
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = errors.New("markov: truncated chain")
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) key() ctxKey {
	var k ctxKey
	n := d.byte()
	if n > MaxSupportedOrder {
		d.err = fmt.Errorf("markov: context order %d exceeds %d", n, MaxSupportedOrder)
		return k
	}
	k.n = n
	for i := 0; i < int(n); i++ {
		k.r[i] = uint32(d.uvarint())
	}
	return k
}

// Decode reconstructs a chain from Encode's output. The embedded
// configuration wins; callers that require a specific configuration check
// Config after decoding and rebuild on mismatch.
func Decode(data []byte) (*Chain, error) {
	if len(data) < len(chainMagic)+1 {
		return nil, errors.New("markov: chain blob too short")
	}
	if string(data[:len(chainMagic)]) != chainMagic {
		return nil, fmt.Errorf("markov: bad chain magic %q", data[:len(chainMagic)])
	}
	if v := data[len(chainMagic)]; v != chainVersion {
		return nil, fmt.Errorf("markov: unsupported chain version %d", v)
	}
	d := &decoder{data: data, pos: len(chainMagic) + 1}
	cfg := Config{
		MaxOrder: int(d.uvarint()),
		MinCount: int(d.uvarint()),
		Window:   int(d.uvarint()),
		Period:   int(d.uvarint()),
	}
	if d.err != nil {
		return nil, d.err
	}
	c := New(cfg)
	if d.byte() == 1 {
		c.lastT = int(d.uvarint())
		c.haveLast = true
	}
	c.observed = d.uvarint()
	nh := d.uvarint()
	if d.err == nil && nh > MaxSupportedOrder {
		return nil, fmt.Errorf("markov: history length %d exceeds %d", nh, MaxSupportedOrder)
	}
	for i := uint64(0); i < nh && d.err == nil; i++ {
		c.hist = append(c.hist, uint32(d.uvarint()))
	}
	no := d.uvarint()
	for i := uint64(0); i < no && d.err == nil; i++ {
		id := uint32(d.uvarint())
		c.offsets[id] = uint32(d.uvarint())
	}
	nc := d.uvarint()
	for i := uint64(0); i < nc && d.err == nil; i++ {
		k := d.key()
		ns := d.uvarint()
		// The count is a claim until its bytes arrive, and a successor is
		// two varints: size the map by what the blob can still hold.
		dist := make(map[uint32]uint32, min(ns, uint64(len(d.data)-d.pos)/2))
		for j := uint64(0); j < ns && d.err == nil; j++ {
			r := uint32(d.uvarint())
			cnt := uint32(d.uvarint())
			dist[r] = cnt
			c.live += uint64(cnt)
		}
		if d.err == nil && len(dist) > 0 {
			c.counts[k] = dist
		}
	}
	ne := d.uvarint()
	for i := uint64(0); i < ne && d.err == nil; i++ {
		ev := event{t: int(d.uvarint())}
		ev.key = d.key()
		ev.next = uint32(d.uvarint())
		c.events = append(c.events, ev)
	}
	if d.err != nil {
		return nil, d.err
	}
	return c, nil
}

// mod is the non-negative remainder.
func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
