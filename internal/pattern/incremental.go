package pattern

import (
	"fmt"
	"math/bits"
	"slices"
)

// Delta-Apriori: the incremental counterpart of MineWithStats. The miner
// keeps every frequent itemset's support alongside the region table, so
// absorbing one new sub-trajectory touches only the itemsets contained in
// that sub-trajectory's region chain instead of re-counting every
// candidate over the full visitor bitmaps. Retiring an expired
// sub-trajectory reverses the same enumeration. GeT_Move mines the same
// class of spatio-temporal patterns with exactly this shape of bounded,
// delta-proportional update; §V-B of the paper gestures at it with the
// TPT insertion algorithm.
//
// Invariant: a tracked itemset's support always equals the popcount of
// the AND of its regions' (current) visitor bitmaps. Increment/decrement
// maintains it for itemsets a chain touches; itemsets first seen this
// batch get their support straight from the bitmaps (which already
// include the whole batch), and an epoch stamp keeps later chains of the
// same batch from double counting them.
//
// Layout: one map from an itemset's identity to a slot, and everything
// else in two pointer-free slabs behind it, the slot records and one id
// arena (DESIGN.md, "What one miner costs").

// MaxIdentityLen caps itemset length (premise plus consequence) so an
// itemset's identity fits a fixed comparable array. Config.MaxLength is
// clamped to it.
const MaxIdentityLen = 8

// IdentityKey is the canonical, comparable identity of an itemset or
// pattern: its region ids sorted ascending, each stored as id+1 so empty
// slots (zero) are unambiguous. Map-key friendly — no allocation, unlike
// a formatted string key.
type IdentityKey [MaxIdentityLen]uint32

// identityOf returns the canonical key of a region-id set. Input order is
// irrelevant: minted regions make id order diverge from offset order, so
// the key sorts numerically.
func identityOf[T ~int | ~int32](ids []T) IdentityKey {
	if len(ids) > MaxIdentityLen {
		panic(fmt.Sprintf("pattern: itemset of %d regions exceeds identity capacity %d", len(ids), MaxIdentityLen))
	}
	var k IdentityKey
	for i, id := range ids {
		k[i] = uint32(id) + 1
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
	return k
}

// PatternIdentity returns the identity key of a mined pattern — its full
// itemset, premise plus consequence. Two patterns with the same key are
// the same rule (a rule's consequence is determined by its itemset: the
// max-offset region).
func PatternIdentity(p Pattern) IdentityKey {
	var buf [MaxIdentityLen]RegionID
	ids := append(buf[:0], p.Premise...)
	ids = append(ids, p.Consequence)
	return identityOf(ids)
}

// CompareIdentity orders identity keys lexicographically; used for
// deterministic delta output.
func CompareIdentity(a, b IdentityKey) int { return slices.Compare(a[:], b[:]) }

// NoTag is the tag of a rule whose owner has not named it yet.
const NoTag = -1

// Delta is the rule-set change one incremental update produced. Removed
// must be applied before Added: a rule can be retired and re-promoted in
// the same update (its itemset dipped below min-support and came back).
//
// A live rule is named by its slot: Rule reads what it emits, Rules turns
// slots into patterns, SetTag gives one the name (the model uses the engine
// ref) a removal calls it by. Rules returns, and Removed comes in,
// CompareIdentity order, because insertion order assigns refs, refs break
// ranking ties, and deletion order decides tree shape; payload writes
// commute, so Updated is unordered, and is the miner's own buffer, valid
// until its next Update/AbsorbMinted.
type Delta struct {
	Added       []int32       // slots of rules newly clearing support and confidence
	Updated     []int32       // slots of rules whose confidence/support moved
	Removed     []RuleRemoval // rules that no longer qualify
	Reevaluated int           // itemsets touched and re-derived a rule for: the work done
}

// RuleRemoval names a rule that went: the tag it had and what it was.
type RuleRemoval struct {
	Key IdentityKey
	Tag int32
}

// slot is the state of one index entry. A tracked slot is a frequent
// itemset; an untracked one (a ghost) stays only while it heads the list
// of tracked itemsets whose premise it is: single regions, and a longer
// premise between its own demotion and its dependents' in one retire pass.
type slot struct {
	conf       float64 // confidence of the emitted rule (active slots)
	support    int32   // live support (tracked slots)
	ruleSup    int32   // support of the emitted rule (active slots)
	epoch      uint32  // pass that set support from the bitmaps
	stamp      uint32  // pass that last queued the slot for re-evaluation
	tag        int32   // the owner's name for the emitted rule, NoTag if unset
	prem       int32   // the premise's slot while tracked
	head       int32   // first tracked itemset whose premise this slot is
	next, prev int32   // neighbours in prem's dependents list
	n          uint8   // itemset length; 0 on the free list
	flags      uint8
}

const (
	slotTracked uint8 = 1 << iota // frequent: support maintained
	slotActive                    // its rule is currently emitted

	noSlot int32 = -1
)

// minerOp says what an enumeration does with the itemsets it walks.
type minerOp uint8

const (
	opAbsorb minerOp = iota
	opRetire
	opMinted
)

// IncrementalMiner maintains the frequent-itemset state of delta-Apriori
// over a RegionTable. Chains fed to Update/AbsorbMinted must reflect
// bitmap state: the table's Absorb/ClearSub calls happen first, then the
// miner consumes the chains those calls implied.
//
// Not safe for concurrent use; callers serialize updates like any other
// model mutation.
type IncrementalMiner struct {
	rt  *RegionTable
	cfg Config

	index   map[IdentityKey]int32 // identity → slot, tracked and ghost alike
	slots   []slot
	ids     []int32 // cfg.MaxLength per slot, ascending time offset
	free    []int32 // slots to reuse
	tracked int
	pass    uint32 // one per Update / AbsorbMinted: the epoch, and the queue's dedup stamp

	// Per-pass state. The queue is reused; a pass's additions and removals
	// are allocated for it alone, so a miner retains nothing for them.
	queue   []int32 // slots to re-derive a rule for; then Delta.Updated, in place
	removed []RuleRemoval

	// Enumeration state (see enumerate).
	op     minerOp
	minted RegionID
	chain  []RegionID
	offs   []int
	buf    []RegionID
}

// NewIncrementalMiner returns an empty miner over rt. Seed it by feeding
// every live sub-trajectory's chain to Update in one batch — the same
// code path later increments run through, so seeded state and batch-mined
// state agree exactly (see TestIncrementalMatchesBatch). rules is how many
// rules the caller expects the seeding to yield (0 when unknown); it only
// sizes the index and the slabs.
func NewIncrementalMiner(rt *RegionTable, cfg Config, rules int) *IncrementalMiner {
	cfg = cfg.withDefaults()
	// At the fleet's shape every frequent itemset clears the confidence
	// floor; the regions are the premises that are no itemset.
	slots := rules + rt.Len()
	return &IncrementalMiner{
		rt:    rt,
		cfg:   cfg,
		index: make(map[IdentityKey]int32, rules),
		slots: make([]slot, 0, slots),
		ids:   make([]int32, 0, slots*cfg.MaxLength),
		queue: make([]int32, 0, rules),
		buf:   make([]RegionID, 0, MaxIdentityLen),
	}
}

// TrackedItemsets returns how many frequent itemsets the miner tracks.
func (m *IncrementalMiner) TrackedItemsets() int { return m.tracked }

// ActiveRules returns the current rule set, sorted deterministically.
func (m *IncrementalMiner) ActiveRules() []Pattern {
	var active []int32
	for s := range m.slots {
		if m.slots[s].flags&slotActive != 0 {
			active = append(active, int32(s))
		}
	}
	return m.Rules(active)
}

// Bind names the active rule of the given identity and reports what it
// emits. ok is false when no active rule has that identity or it is named
// already, so binding an owner's rules one by one finds the ones the miner
// no longer has and the duplicates.
func (m *IncrementalMiner) Bind(key IdentityKey, tag int) (conf float64, support int, ok bool) {
	s, ok := m.index[key]
	if !ok || m.slots[s].flags&slotActive == 0 || m.slots[s].tag != NoTag {
		return 0, 0, false
	}
	m.slots[s].tag = int32(tag)
	return m.slots[s].conf, int(m.slots[s].ruleSup), true
}

// SetTag names the rule in slot s, a Delta.Added entry.
func (m *IncrementalMiner) SetTag(s int32, tag int) { m.slots[s].tag = int32(tag) }

// Rule returns what the active rule in slot s emits and its name, NoTag
// when it has none.
func (m *IncrementalMiner) Rule(s int32) (tag int, conf float64, support int) {
	return int(m.slots[s].tag), m.slots[s].conf, int(m.slots[s].ruleSup)
}

// Update absorbs the region chains of newly arrived sub-trajectories and
// retires the chains of expired ones, returning the rule-set delta. The
// region table must already hold the corresponding bitmap state: new
// subs' bits set (AbsorbDetailed), retired subs' bits cleared (ClearSub,
// with each chain captured by ChainOf beforehand).
func (m *IncrementalMiner) Update(added, retired [][]RegionID) Delta {
	m.begin()
	m.enumerate(retired, opRetire)
	m.enumerate(added, opAbsorb)
	return m.reevaluate()
}

// AbsorbMinted registers a freshly minted region r: chains are the
// current full chains (ChainOf) of every sub-trajectory visiting it.
// Minting sets bits only in the new region's bitmap, so only itemsets
// containing r can have changed — the enumeration is restricted to them,
// and every such itemset is new, so the delta holds only additions. Call
// it after the Update that absorbed those sub-trajectories.
func (m *IncrementalMiner) AbsorbMinted(r RegionID, chains [][]RegionID) Delta {
	m.begin()
	m.minted = r
	m.enumerate(chains, opMinted)
	return m.reevaluate()
}

// begin opens a pass: an empty queue, and a stamp no slot carries yet.
func (m *IncrementalMiner) begin() {
	m.pass++
	m.queue, m.removed = m.queue[:0], nil
}

// enqueue queues s for re-evaluation, once per pass.
func (m *IncrementalMiner) enqueue(s int32) {
	if sl := &m.slots[s]; sl.stamp != m.pass {
		sl.stamp = m.pass
		m.queue = append(m.queue, s)
	}
}

// visit is handed every structurally valid itemset of the chain being
// enumerated. Absorbing, it gains one support or, first touched this
// batch, starts being tracked; retiring reverses that and demotes what
// falls below min-support; a minted replay only looks at itemsets through
// the new region, every one of them new.
func (m *IncrementalMiner) visit(ids []RegionID) {
	if m.op == opMinted && !slices.Contains(ids, m.minted) {
		return
	}
	key := identityOf(ids)
	s, ok := m.index[key]
	if !ok || m.slots[s].flags&slotTracked == 0 {
		if m.op != opRetire {
			m.trackOnDemand(key, ids)
		}
		return
	}
	sl := &m.slots[s]
	switch m.op {
	case opAbsorb:
		if sl.epoch != m.pass {
			sl.support++
		}
		m.enqueue(s)
	case opRetire:
		sl.support--
		if int(sl.support) >= m.cfg.MinSupport {
			m.enqueue(s)
			return
		}
		if sl.flags&slotActive != 0 {
			m.removed = append(m.removed, RuleRemoval{key, sl.tag})
		}
		m.untrack(s)
	}
}

// trackOnDemand starts tracking an itemset first touched this batch. Its
// support comes from the bitmaps — which already include every chain of
// the batch — so the epoch stamp tells later chains not to add on top.
func (m *IncrementalMiner) trackOnDemand(key IdentityKey, ids []RegionID) {
	sup := bitmapSupport(m.rt, ids)
	if sup < m.cfg.MinSupport {
		return
	}
	premise := ids[:len(ids)-1]
	s, p := m.slotFor(key, ids), m.slotFor(identityOf(premise), premise)
	sl, head := &m.slots[s], &m.slots[p].head
	sl.flags |= slotTracked
	sl.support, sl.epoch = int32(sup), m.pass
	sl.prem, sl.next = p, *head
	if *head != noSlot {
		m.slots[*head].prev = s
	}
	*head = s
	m.tracked++
	m.enqueue(s)
}

// slotFor returns the slot of an itemset, giving it one — untracked —
// when it has none.
func (m *IncrementalMiner) slotFor(key IdentityKey, ids []RegionID) int32 {
	if s, ok := m.index[key]; ok {
		return s
	}
	var s int32
	stride := m.cfg.MaxLength
	if n := len(m.free); n > 0 {
		s, m.free = m.free[n-1], m.free[:n-1]
	} else {
		s = int32(len(m.slots))
		m.slots = append(m.slots, slot{})
		m.ids = slices.Grow(m.ids, stride)[:len(m.ids)+stride]
	}
	// The stamp survives reuse: a slot freed and retaken inside one pass
	// may be in the queue already.
	m.slots[s] = slot{n: uint8(len(ids)), stamp: m.slots[s].stamp,
		tag: NoTag, prem: noSlot, head: noSlot, next: noSlot, prev: noSlot}
	for i, id := range ids {
		m.ids[int(s)*stride+i] = int32(id)
	}
	m.index[key] = s
	return s
}

// idsOf returns the itemset of slot s, ascending time offset.
func (m *IncrementalMiner) idsOf(s int32) []int32 {
	lo := int(s) * m.cfg.MaxLength
	return m.ids[lo : lo+int(m.slots[s].n)]
}

// untrack forgets a demoted itemset: it leaves its premise's dependents
// list, and both slots are released if nothing else needs them.
func (m *IncrementalMiner) untrack(s int32) {
	sl := &m.slots[s]
	p := sl.prem
	if sl.prev != noSlot {
		m.slots[sl.prev].next = sl.next
	} else {
		m.slots[p].head = sl.next
	}
	if sl.next != noSlot {
		m.slots[sl.next].prev = sl.prev
	}
	sl.flags, sl.support, sl.tag = 0, 0, NoTag
	sl.prem, sl.next, sl.prev = noSlot, noSlot, noSlot
	m.tracked--
	m.release(p)
	m.release(s)
}

// release frees s once it is neither tracked nor heading a dependents
// list: a premise demoted before its dependents stays on as a ghost until
// the last of them has left, so no list is orphaned.
func (m *IncrementalMiner) release(s int32) {
	sl := &m.slots[s]
	if sl.flags&slotTracked != 0 || sl.head != noSlot {
		return
	}
	delete(m.index, identityOf(m.idsOf(s)))
	sl.n = 0
	m.free = append(m.free, s)
}

// touchPremise queues every tracked itemset whose premise the chain
// contains: its confidence denominator moved even if its own support did
// not (the sub-trajectory visited the premise but not the consequence).
func (m *IncrementalMiner) touchPremise(prem []RegionID) {
	p, ok := m.index[identityOf(prem)]
	if !ok {
		return
	}
	for s := m.slots[p].head; s != noSlot; s = m.slots[s].next {
		m.enqueue(s)
	}
}

// bitmapSupport computes an itemset's exact support from the region
// bitmaps: the popcount of their AND. O(numSubs/64) words per region.
func bitmapSupport[T ~int | ~int32](rt *RegionTable, ids []T) int {
	sup := 0
	for w, acc := range rt.Region(RegionID(ids[0])).visitors.Words() {
		for _, id := range ids[1:] {
			acc &= rt.Region(RegionID(id)).visitors.Words()[w]
		}
		sup += bits.OnesCount64(acc)
	}
	return sup
}

// reevaluate derives the rule of every queued itemset and diffs it
// against what the slot last emitted.
func (m *IncrementalMiner) reevaluate() Delta {
	d := Delta{Updated: m.queue[:0]} // filtered in place: never ahead of the read
	for _, s := range m.queue {
		sl := &m.slots[s]
		if sl.flags&slotTracked == 0 {
			continue // demoted after it was queued
		}
		d.Reevaluated++
		conf := m.confidence(s)
		ok, was := conf >= m.cfg.MinConfidence, sl.flags&slotActive != 0
		switch {
		case ok && !was:
			sl.flags |= slotActive
			sl.conf, sl.ruleSup = conf, sl.support
			d.Added = append(d.Added, s)
		case ok && was && (conf != sl.conf || sl.support != sl.ruleSup):
			sl.conf, sl.ruleSup = conf, sl.support
			d.Updated = append(d.Updated, s)
		case !ok && was:
			sl.flags &^= slotActive
			m.removed = append(m.removed, RuleRemoval{identityOf(m.idsOf(s)), sl.tag})
			sl.tag = NoTag
		}
	}
	slices.SortFunc(m.removed, func(a, b RuleRemoval) int { return CompareIdentity(a.Key, b.Key) })
	d.Removed = m.removed
	return d
}

// confidence derives the one candidate rule of a frequent itemset (pruned
// rule generation: monotone premise, single max-offset consequence).
func (m *IncrementalMiner) confidence(s int32) float64 {
	sl, ids := &m.slots[s], m.idsOf(s)
	var premSup int
	switch p := &m.slots[sl.prem]; {
	case sl.n == 2:
		premSup = m.rt.Region(RegionID(ids[0])).Support
	case p.flags&slotTracked != 0:
		premSup = int(p.support)
	default:
		// Anti-monotonicity keeps premises tracked while their itemset
		// is; fall back to the bitmaps defensively.
		premSup = bitmapSupport(m.rt, ids[:sl.n-1])
	}
	return float64(sl.support) / float64(premSup)
}

// Rules sorts slots, each holding an active rule, into CompareIdentity
// order in place and returns the rules as emitted, in one fresh slice with
// premises carved from one fresh arena.
func (m *IncrementalMiner) Rules(slots []int32) []Pattern {
	slices.SortFunc(slots, func(a, b int32) int {
		return CompareIdentity(identityOf(m.idsOf(a)), identityOf(m.idsOf(b)))
	})
	total := 0
	for _, s := range slots {
		total += int(m.slots[s].n) - 1
	}
	arena := make([]RegionID, 0, total)
	out := make([]Pattern, len(slots))
	for i, s := range slots {
		ids, sl := m.idsOf(s), &m.slots[s]
		lo := len(arena)
		for _, id := range ids[:len(ids)-1] {
			arena = append(arena, RegionID(id))
		}
		out[i] = Pattern{
			Premise:     arena[lo:len(arena):len(arena)],
			Consequence: RegionID(ids[len(ids)-1]),
			Confidence:  sl.conf,
			Support:     int(sl.ruleSup),
		}
	}
	return out
}

// validItemset reports whether an offset-ascending itemset is one the
// batch miner would generate: span and reach bounds at the top level,
// and — matching level-wise Apriori, which only forms a k-itemset from
// generated (k-1)-itemsets, its two join parents included — the same
// holding recursively for every subset one element short. For the default
// MaxLength of 3 the recursion never fires.
func (m *IncrementalMiner) validItemset(ids []RegionID) bool {
	k := len(ids)
	if k < 2 || k > m.cfg.MaxLength {
		return false
	}
	if k == 2 {
		return true
	}
	off := func(i int) int { return m.rt.Region(ids[i]).Offset }
	if m.cfg.PremiseSpan >= 0 && off(k-2)-off(0) > m.cfg.PremiseSpan {
		return false
	}
	if m.cfg.ConsequenceReach >= 0 && off(k-1)-off(k-2) > m.cfg.ConsequenceReach {
		return false
	}
	if k == 3 {
		return true
	}
	var buf [MaxIdentityLen]RegionID
	for drop := 0; drop < k; drop++ {
		sub := buf[:0]
		for i, id := range ids {
			if i != drop {
				sub = append(sub, id)
			}
		}
		if !m.validItemset(sub) {
			return false
		}
	}
	return true
}

// enumerate walks every structurally valid itemset (size 2..MaxLength)
// and — except in a minted replay — every premise-shaped subset (size
// 1..MaxLength-1, premise-span bounded) of each chain, in deterministic
// order, handing them to visit and touchPremise. A chain must hold at most
// one region per time offset, ascending by offset — the shape one period's
// sub-trajectory produces.
func (m *IncrementalMiner) enumerate(chains [][]RegionID, op minerOp) {
	if m.cfg.MaxLength < 2 {
		return
	}
	for _, chain := range chains {
		m.op, m.chain, m.offs = op, chain, m.offs[:0]
		for _, id := range chain {
			m.offs = append(m.offs, m.rt.Region(id).Offset)
		}
		for i := range chain {
			m.buf = append(m.buf[:0], chain[i])
			m.grow(i, i)
		}
	}
}

// grow is called with a premise of size >= 1 in m.buf; first and last are
// the chain indices of its ends. Offsets ascend along the chain, so the
// span and reach scans can break early.
func (m *IncrementalMiner) grow(first, last int) {
	n, offs := len(m.buf), m.offs
	span, reach := m.cfg.PremiseSpan, m.cfg.ConsequenceReach
	if m.op != opMinted {
		m.touchPremise(m.buf)
	}
	for c := last + 1; c < len(m.chain); c++ {
		if n >= 2 && reach >= 0 && offs[c]-offs[last] > reach {
			break
		}
		m.buf = append(m.buf, m.chain[c])
		if m.validItemset(m.buf) {
			m.visit(m.buf)
		}
		m.buf = m.buf[:n]
	}
	if n+1 <= m.cfg.MaxLength-1 {
		for nxt := last + 1; nxt < len(m.chain); nxt++ {
			if span >= 0 && offs[nxt]-offs[first] > span {
				break
			}
			m.buf = append(m.buf, m.chain[nxt])
			m.grow(first, nxt)
			m.buf = m.buf[:n]
		}
	}
}
