package pattern

import (
	"fmt"
	"math/bits"
	"slices"
	"unsafe"
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
// the AND of its regions' (current) visitor bitmaps. Seeding takes it from
// the walk batch mining reads, which carries that AND; increment/decrement
// maintains it for itemsets a chain touches; itemsets first seen this
// batch get their support straight from the bitmaps (which already
// include the whole batch), and an epoch stamp keeps later chains of the
// same batch from double counting them.
//
// Layout: three pointer-free slabs, the slot records, one id arena and an
// index of slot numbers that finds a slot by the itemset the arena holds
// (slotindex.go; DESIGN.md, "What one miner costs").

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
func identityOf(ids []RegionID) IdentityKey {
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
// bitmap state: the table's AbsorbDetailed/ClearSub calls happen first,
// then the miner consumes the chains those calls implied.
//
// Not safe for concurrent use; callers serialize updates like any other
// model mutation.
type IncrementalMiner struct {
	rt  *RegionTable
	cfg Config

	index   slotIndex // itemset → slot, tracked and ghost alike
	slots   []slot
	ids     []RegionID // cfg.MaxLength per slot, ascending time offset
	free    []int32    // slots to reuse
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

// NewIncrementalMiner returns an empty miner over rt; Seed fills it from
// the table's bitmaps. rules is how many rules the caller expects the
// seeding to yield (0 when unknown); it only sizes the index and the slabs.
func NewIncrementalMiner(rt *RegionTable, cfg Config, rules int) *IncrementalMiner {
	cfg = cfg.withDefaults()
	// At the fleet's shape every frequent itemset clears the confidence
	// floor; the regions are the premises that are no itemset.
	slots := rules + rt.Len()
	return &IncrementalMiner{
		rt:    rt,
		cfg:   cfg,
		index: newSlotIndex(slots),
		slots: make([]slot, 0, slots),
		ids:   make([]RegionID, 0, slots*cfg.MaxLength),
		queue: make([]int32, 0, rules),
		buf:   make([]RegionID, 0, MaxIdentityLen),
	}
}

// TrackedItemsets returns how many frequent itemsets the miner tracks.
func (m *IncrementalMiner) TrackedItemsets() int { return m.tracked }

// Bytes returns the capacity, in bytes, of the miner's three slabs: the
// slot records, the id arena and the index.
func (m *IncrementalMiner) Bytes() int {
	return cap(m.slots)*int(unsafe.Sizeof(slot{})) + cap(m.ids)*int(unsafe.Sizeof(RegionID(0))) +
		len(m.index.entries)*int(unsafe.Sizeof(indexEntry{}))
}

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

// Bind names the active rule whose itemset is ids, ascending time offset —
// a rule row's premise, then its consequence — and reports what it emits.
// ok is false when no active rule has that itemset or it is named already,
// so binding an owner's rules one by one finds the ones the miner no longer
// has and the duplicates.
func (m *IncrementalMiner) Bind(ids []RegionID, tag int) (conf float64, support int, ok bool) {
	s, ok := m.lookup(ids)
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

// Seed tracks every frequent itemset of the table and derives its rule,
// returning them all as additions. Each itemset is visited once, by the
// walk batch mining reads (walkItemsets), with its support from the AND
// the walk carries, so seeded and batch-mined rules agree exactly. Call it
// once, on a new miner; Update keeps it current from then on. It leaves
// the state a replay of every live chain through Update would — the same
// tracked itemsets, supports, premise links and active rules — under
// another slot numbering and dependents-list order, neither of which
// shows outside the miner.
func (m *IncrementalMiner) Seed() Delta {
	m.begin()
	// prem[n] is the slot of the n-region itemset on the walk's path, the
	// premise of the next one a region longer. A region gets its slot with
	// the first two-region itemset it starts; the walk visits all of those
	// before it moves on to the next region.
	var prem [MaxIdentityLen + 1]int32
	first := RegionID(-1)
	walkItemsets(m.rt, m.cfg, func(ids []RegionID, sup, _ int) {
		n := len(ids)
		if n == 2 && ids[0] != first {
			first, prem[1] = ids[0], m.newSlot(ids[:1])
		}
		prem[n] = m.newSlot(ids)
		m.track(prem[n], prem[n-1], sup)
	})
	return m.reevaluate()
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
	s, ok := m.lookup(ids)
	if !ok || m.slots[s].flags&slotTracked == 0 {
		if m.op != opRetire {
			m.trackOnDemand(ids)
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
			m.removed = append(m.removed, RuleRemoval{identityOf(ids), sl.tag})
		}
		m.untrack(s)
	}
}

// trackOnDemand starts tracking an itemset first touched this batch. Its
// support comes from the bitmaps — which already include every chain of
// the batch — so the epoch stamp tells later chains not to add on top.
func (m *IncrementalMiner) trackOnDemand(ids []RegionID) {
	sup := bitmapSupport(m.rt, ids)
	if sup < m.cfg.MinSupport {
		return
	}
	m.track(m.slotFor(ids), m.slotFor(ids[:len(ids)-1]), sup)
}

// track starts tracking the itemset in slot s, of support sup, as a
// dependent of its premise's slot p, and queues it for its rule. The epoch
// stamp marks sup as the bitmaps' count for this pass.
func (m *IncrementalMiner) track(s, p int32, sup int) {
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
func (m *IncrementalMiner) slotFor(ids []RegionID) int32 {
	if s, ok := m.lookup(ids); ok {
		return s
	}
	return m.newSlot(ids)
}

// newSlot gives an itemset the index does not hold, ids in ascending time
// offset, an untracked slot.
func (m *IncrementalMiner) newSlot(ids []RegionID) int32 {
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
	copy(m.ids[int(s)*stride:], ids)
	m.index.insert(fingerprint(ids), s)
	return s
}

// idsOf returns the itemset of slot s, ascending time offset.
func (m *IncrementalMiner) idsOf(s int32) []RegionID {
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
	m.index.remove(fingerprint(m.idsOf(s)), s)
	sl.n = 0
	m.free = append(m.free, s)
}

// touchPremise queues every tracked itemset whose premise the chain
// contains: its confidence denominator moved even if its own support did
// not (the sub-trajectory visited the premise but not the consequence).
func (m *IncrementalMiner) touchPremise(prem []RegionID) {
	p, ok := m.lookup(prem)
	if !ok {
		return
	}
	for s := m.slots[p].head; s != noSlot; s = m.slots[s].next {
		m.enqueue(s)
	}
}

// bitmapSupport computes an itemset's exact support from the region
// bitmaps: the popcount of their AND. O(numSubs/64) words per region.
func bitmapSupport(rt *RegionTable, ids []RegionID) int {
	sup := 0
	for w, acc := range rt.Region(ids[0]).visitors.Words() {
		for _, id := range ids[1:] {
			acc &= rt.Region(id).visitors.Words()[w]
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
		premSup = m.rt.Region(ids[0]).Support
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
		arena = append(arena, ids[:len(ids)-1]...)
		out[i] = Pattern{
			Premise:     arena[lo:len(arena):len(arena)],
			Consequence: ids[len(ids)-1],
			Confidence:  sl.conf,
			Support:     int(sl.ruleSup),
		}
	}
	return out
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
		if validItemset(m.rt, m.cfg, m.buf) {
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
