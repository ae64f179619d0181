// Package markov implements a variable-order Markov chain over the
// frequent regions the pattern miner discovers — the NLPMM-style third
// answering path of the hybrid predictor.
//
// The chain observes the object's located region sequence one visit at a
// time: each located observation records a transition from every context
// of order 1..MaxOrder ending at the previous visit to the new region, so
// an update costs O(MaxOrder) counter increments — no batch rebuild. A
// query walks the chain greedily from the query's recent region context,
// escaping to shorter contexts when a long one has no sufficiently
// supported successor (back-off), and advancing an implied clock by the
// period offsets of the predicted regions until the query time is
// reached. Counts optionally decay over a sliding window: every recorded
// transition is remembered with its timestamp, and transitions older than
// Window time units are decremented back out — the same retention policy
// the store applies to tracks via RetainPeriods.
//
// The chain is one table: a row per counted transition, sorted by a key
// packing the context and its successor, so a context's successors form
// one run found by bisection. Its order is Encode's, so encoding is a walk
// and a chain folded from the same observations always encodes to the
// same bytes — the property the store's crash-recovery bit-identity tests
// rely on. Decode reads through pattern.Cursor and refuses what Encode
// never writes.
package markov

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"

	"hpm/internal/pattern"
)

// MaxSupportedOrder bounds the context length so a context and its
// successor pack into one fixed-size key.
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

// key packs one transition into six 32-bit fields of three words: the
// context's order n, its visits oldest first (unused ones zero), and the
// successor. Comparing the words in turn orders keys as Encode writes
// them: by order, by visits, then by successor.
type key [3]uint64

const succField = 1 + MaxSupportedOrder

func (k *key) set(f int, v uint32) { k[f/2] |= uint64(v) << (32 - 32*(f%2)) }

func (k key) field(f int) uint32 { return uint32(k[f/2] >> (32 - 32*(f%2))) }

func (k key) less(o key) bool {
	return k[0] < o[0] || k[0] == o[0] && (k[1] < o[1] || k[1] == o[1] && k[2] < o[2])
}

// sameContext reports whether k and o differ at most in the successor.
func (k key) sameContext(o key) bool {
	return k[0] == o[0] && k[1] == o[1] && k[2]>>32 == o[2]>>32
}

func makeKey(ctx []uint32, next uint32) key {
	var k key
	k.set(0, uint32(len(ctx)))
	for i, r := range ctx {
		k.set(1+i, r)
	}
	k.set(succField, next)
	return k
}

// row is one counted transition; a row's count is never zero.
type row struct {
	key   key
	count uint32
}

// offset is the period offset a region was last observed at.
type offset struct{ id, off uint32 }

// event is one recorded transition awaiting window expiry.
type event struct {
	t   int
	key key
}

// Result is one prediction from the chain.
type Result struct {
	Region uint32  // predicted region id
	Offset int     // the region's time offset within the period
	Prob   float64 // product of the walk's step probabilities
	Order  int     // context order the first step matched after back-off
	Steps  int     // walk length in region visits
}

// Chain is a variable-order region-transition chain. All methods are safe
// for concurrent use.
type Chain struct {
	mu  sync.RWMutex
	cfg Config

	rows    []row    // counted transitions, ascending by key
	offsets []offset // ascending by region id
	hist    []uint32 // last MaxOrder located regions, most recent last

	lastT    int
	haveLast bool
	observed uint64

	events []event // window-expiry log, events[head:] live, insertion order
	head   int
}

// New returns an empty chain.
func New(cfg Config) *Chain {
	cfg = cfg.withDefaults()
	return &Chain{cfg: cfg, hist: make([]uint32, 0, cfg.MaxOrder)}
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
	off := offset{region, uint32(mod(t, c.cfg.Period))}
	if i, ok := c.findOffset(region); ok {
		c.offsets[i] = off
	} else {
		c.offsets = slices.Insert(c.offsets, i, off)
	}
	if c.haveLast && t-c.lastT >= c.cfg.Period {
		c.hist = c.hist[:0]
	}
	for n := 1; n <= len(c.hist); n++ {
		k := makeKey(c.hist[len(c.hist)-n:], region)
		if i, ok := c.find(k); ok {
			c.rows[i].count++
		} else {
			c.rows = slices.Insert(c.rows, i, row{k, 1})
		}
		if c.cfg.Window > 0 {
			c.events = append(c.events, event{t: t, key: k})
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

// find returns the index of the first row whose key is not below k, and
// whether that row's key is k.
func (c *Chain) find(k key) (int, bool) {
	lo, hi := 0, len(c.rows)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.rows[m].key.less(k) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.rows) && c.rows[lo].key == k
}

// runEnd returns the index just past the run of rows sharing row i's
// context.
func (c *Chain) runEnd(i int) int {
	j := i + 1
	for j < len(c.rows) && c.rows[j].key.sameContext(c.rows[i].key) {
		j++
	}
	return j
}

// contextsLocked counts the distinct contexts, one per run of rows.
func (c *Chain) contextsLocked() int {
	n := 0
	for i := 0; i < len(c.rows); i = c.runEnd(i) {
		n++
	}
	return n
}

// findOffset returns the index of the first offset whose region id is not
// below id, and whether it is id's.
func (c *Chain) findOffset(id uint32) (int, bool) {
	lo, hi := 0, len(c.offsets)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.offsets[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.offsets) && c.offsets[lo].id == id
}

// expireLocked decays transitions recorded at or before t-Window. An
// event naming a transition the chain does not count (a decoded chain
// can hold one) changes nothing.
func (c *Chain) expireLocked(t int) {
	cut := t - c.cfg.Window
	for c.head < len(c.events) && c.events[c.head].t <= cut {
		if i, ok := c.find(c.events[c.head].key); ok {
			if c.rows[i].count > 1 {
				c.rows[i].count--
			} else {
				c.rows = slices.Delete(c.rows, i, i+1)
			}
		}
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
	c.rows = c.rows[:0]
	c.offsets = c.offsets[:0]
	c.hist = c.hist[:0]
	c.events = c.events[:0]
	c.head = 0
	c.lastT = 0
	c.haveLast = false
	c.observed = 0
}

// PredictEach walks the chain once from the query's recent located region
// sequence (most recent last, ending at current time tc) to the furthest of
// tqs, and sets out[i] to the walk's state at its first step at or past
// tqs[i]. Each step takes the best-supported successor of the longest
// matching context — backing off to shorter contexts when the long one is
// unknown or too thin — and advances the clock to the successor region's
// period offset. The walk is deterministic and its budgets, once spent,
// stay spent, so each answer is the one a walk to that time alone gives.
// out[i] is the zero Result where the chain cannot answer: tqs[i] is not
// after tc, or the clock does not reach it because no context matches at
// any order, the walk budget runs out or the cumulative probability decays
// to noise.
func (c *Chain) PredictEach(recent []uint32, tc int, tqs []int, out []Result) {
	clear(out[:len(tqs)])
	if len(recent) == 0 {
		return
	}
	// order names tqs' entries in ascending time; a batch the size of the
	// fleet index's horizons keeps it on the stack.
	var obuf [16]int32
	order := obuf[:0]
	for i := range tqs {
		order = append(order, int32(i))
	}
	if !slices.IsSorted(tqs) {
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(tqs[a], tqs[b]) })
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var buf [MaxSupportedOrder]uint32
	ctx := append(buf[:0], recent[max(0, len(recent)-c.cfg.MaxOrder):]...)
	t, res := tc, Result{Prob: 1}
	for _, i := range order {
		for t < tqs[i] {
			if res.Steps == maxWalkSteps {
				return
			}
			next, p, n, ok := c.nextLocked(ctx)
			if !ok {
				return
			}
			if res.Steps == 0 {
				res.Order = n
			}
			var off int
			if k, ok := c.findOffset(next); ok {
				off = int(c.offsets[k].off)
			}
			dt := off - mod(t, c.cfg.Period)
			if dt <= 0 {
				dt += c.cfg.Period
			}
			t += dt
			if res.Prob *= p; res.Prob < minWalkProb {
				return
			}
			if len(ctx) == c.cfg.MaxOrder {
				copy(ctx, ctx[1:])
				ctx[len(ctx)-1] = next
			} else {
				ctx = append(ctx, next)
			}
			res.Region, res.Offset = next, off
			res.Steps++
		}
		if res.Steps > 0 {
			out[i] = res
		}
	}
}

// nextLocked picks the successor of the longest context with a
// sufficiently supported best successor, escaping to shorter contexts.
// Ties break toward the smaller region id, the first of the run, so the
// answer is deterministic for a given chain state.
func (c *Chain) nextLocked(ctx []uint32) (next uint32, p float64, order int, ok bool) {
	for n := len(ctx); n >= 1; n-- {
		k := makeKey(ctx[len(ctx)-n:], 0)
		var best, bestCount uint32
		var total uint64
		for i, _ := c.find(k); i < len(c.rows) && c.rows[i].key.sameContext(k); i++ {
			r := c.rows[i]
			total += uint64(r.count)
			if r.count > bestCount {
				best, bestCount = r.key.field(succField), r.count
			}
		}
		if int(bestCount) >= c.cfg.MinCount {
			return best, float64(bestCount) / float64(total), n, true
		}
	}
	return 0, 0, 0, false
}

// Encode serializes the chain deterministically: configuration, cursor
// state, region offsets and context distributions in the table's order,
// and the live window-event log in insertion order.
func (c *Chain) Encode() []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	buf := make([]byte, 0, 64+8*len(c.offsets)+16*len(c.rows)+16*(len(c.events)-c.head))
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

	buf = binary.AppendUvarint(buf, uint64(len(c.offsets)))
	for _, o := range c.offsets {
		buf = binary.AppendUvarint(buf, uint64(o.id))
		buf = binary.AppendUvarint(buf, uint64(o.off))
	}

	buf = binary.AppendUvarint(buf, uint64(c.contextsLocked()))
	for i := 0; i < len(c.rows); {
		j := c.runEnd(i)
		buf = appendContext(buf, c.rows[i].key)
		buf = binary.AppendUvarint(buf, uint64(j-i))
		for _, r := range c.rows[i:j] {
			buf = binary.AppendUvarint(buf, uint64(r.key.field(succField)))
			buf = binary.AppendUvarint(buf, uint64(r.count))
		}
		i = j
	}

	live := c.events[c.head:]
	buf = binary.AppendUvarint(buf, uint64(len(live)))
	for _, ev := range live {
		buf = binary.AppendUvarint(buf, uint64(ev.t))
		buf = appendContext(buf, ev.key)
		buf = binary.AppendUvarint(buf, uint64(ev.key.field(succField)))
	}
	return buf
}

// appendContext writes k's context: its order, then its visits.
func appendContext(buf []byte, k key) []byte {
	n := int(k.field(0))
	buf = append(buf, byte(n))
	for f := 1; f <= n; f++ {
		buf = binary.AppendUvarint(buf, uint64(k.field(f)))
	}
	return buf
}

// readContext reads a context Encode wrote for a chain of order maxOrder,
// as a key whose successor is zero.
func readContext(cur *pattern.Cursor, maxOrder int) key {
	var k key
	n := int(cur.Byte())
	if n == 0 || n > maxOrder {
		cur.Fail(fmt.Errorf("context of order %d, want 1..%d", n, maxOrder))
		return k
	}
	k.set(0, uint32(n))
	for f := 1; f <= n; f++ {
		k.set(f, uint32(cur.Uvarint()))
	}
	return k
}

// Decode reconstructs a chain from Encode's output. The embedded
// configuration wins; callers that require a specific configuration check
// Config after decoding and rebuild on mismatch. It refuses what Encode
// never writes: region ids, contexts or successors repeated or out of
// order, a zero count, a context with no successor, of order 0 or above
// the chain's, and a history longer than the chain's order.
func Decode(data []byte) (*Chain, error) {
	cur := pattern.NewCursor(data)
	if magic, version := cur.Bytes(len(chainMagic)), cur.Byte(); string(magic) != chainMagic || version != chainVersion {
		return nil, fmt.Errorf("markov: not a version %d chain: header %q", chainVersion, data[:min(len(data), len(chainMagic)+1)])
	}
	c := New(Config{
		MaxOrder: int(cur.Uvarint()),
		MinCount: int(cur.Uvarint()),
		Window:   int(cur.Uvarint()),
		Period:   int(cur.Uvarint()),
	})
	if cur.Byte() == 1 {
		c.lastT = int(cur.Uvarint())
		c.haveLast = true
	}
	c.observed = cur.Uvarint()
	if nh := cur.Uvarint(); nh > uint64(c.cfg.MaxOrder) {
		cur.Fail(fmt.Errorf("history of %d visits, order %d", nh, c.cfg.MaxOrder))
	} else {
		for i := uint64(0); i < nh; i++ {
			c.hist = append(c.hist, uint32(cur.Uvarint()))
		}
	}
	no := cur.Uvarint()
	for i := uint64(0); i < no && cur.Err() == nil; i++ {
		o := offset{id: uint32(cur.Uvarint()), off: uint32(cur.Uvarint())}
		if n := len(c.offsets); n > 0 && c.offsets[n-1].id >= o.id {
			cur.Fail(fmt.Errorf("region %d after region %d", o.id, c.offsets[n-1].id))
		}
		c.offsets = append(c.offsets, o)
	}
	nc := cur.Uvarint()
	for i := uint64(0); i < nc && cur.Err() == nil; i++ {
		ctx, ns := readContext(&cur, c.cfg.MaxOrder), cur.Uvarint()
		// No context is empty, so the last row stands for the one before.
		if n := len(c.rows); ns == 0 || n > 0 && !c.rows[n-1].key.less(ctx) {
			cur.Fail(errors.New("context empty, repeated or out of order"))
		}
		for j := uint64(0); j < ns && cur.Err() == nil; j++ {
			r := row{key: ctx}
			r.key.set(succField, uint32(cur.Uvarint()))
			r.count = uint32(cur.Uvarint())
			if n := len(c.rows); n > 0 && !c.rows[n-1].key.less(r.key) {
				cur.Fail(errors.New("successor repeated or out of order"))
			}
			if r.count == 0 {
				cur.Fail(errors.New("zero transition count"))
			}
			c.rows = append(c.rows, r)
		}
	}
	ne := cur.Uvarint()
	for i := uint64(0); i < ne && cur.Err() == nil; i++ {
		ev := event{t: int(cur.Uvarint()), key: readContext(&cur, c.cfg.MaxOrder)}
		ev.key.set(succField, uint32(cur.Uvarint()))
		c.events = append(c.events, ev)
	}
	if err := cur.Err(); err != nil {
		return nil, fmt.Errorf("markov: decode chain: %w", err)
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
