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
// include the whole batch), and a fresh bit keeps later chains of the
// same batch from double counting them.
//
// Layout: the tracked itemsets form a tree, each one the child of its
// premise, under one root per region that starts a two-region itemset.
// A slot stores only its last region and its premise's slot, so an
// itemset's regions are the walk up its premise links, and a chain finds
// the itemsets it contains by walking down from its regions' roots. A
// rule's confidence and support live in the owner's table row the slot's
// tag names, not in the slot (DESIGN.md, "What one miner costs").

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
// slots into table rows, SetTag gives one the name — its row in the
// owner's table (UseRows) — a removal calls it by. Rules returns
// CompareIdentity order, because insertion order assigns refs and refs
// break ranking ties. Removed and Updated are unordered: the tree a batch
// of removals leaves does not depend on their order, and payload writes
// commute. Updated is the miner's own buffer, valid until its next
// Update/AbsorbMinted.
type Delta struct {
	Added       []int32 // slots of rules newly clearing support and confidence
	Updated     []int32 // slots of rules whose confidence/support moved
	Removed     []int32 // tags of the rules that no longer qualify
	Reevaluated int     // itemsets touched and re-derived a rule for: the work done
}

// slot is one node of the itemset tree. A tracked slot is a frequent
// itemset on its premise's list of children; an untracked one (a ghost) is
// a region's root or, inside one retire pass, a premise demoted before its
// children, left on its own premise's list until they have gone.
type slot struct {
	support int32    // live support (tracked slots)
	tag     int32    // the owner's row for the emitted rule, NoTag if unset
	prem    int32    // the premise's slot; noSlot for a region's root
	head    int32    // first child: a tracked itemset whose premise this is
	next    int32    // next sibling in prem's list of children
	last    RegionID // the itemset's last region
	n       uint8    // itemset length; 0 on the free list
	flags   uint8
}

const (
	slotTracked uint8 = 1 << iota // frequent: support maintained
	slotActive                    // its rule is currently emitted
	slotFresh                     // support set from the bitmaps this pass
	slotQueued                    // queued for re-evaluation this pass

	noSlot int32 = -1
)

// minerOp says what a walk does with the itemsets it reaches.
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
	rt    *RegionTable
	cfg   Config
	rows  *Table      // the owner's rules: row tag holds what an active slot emits
	binds []bindTable // Bind's tables by itemset length, from a seed until UseRows

	slots   []slot
	roots   []int32 // region id → its root slot, noSlot while it has none
	free    []int32 // slots to reuse
	tracked int

	// Per-pass state: the queue is reused, additions and removals are not.
	queue   []int32 // slots to re-derive a rule for; then Delta.Updated, in place
	removed []int32

	// Walk state (see enumerate).
	op     minerOp
	minted int        // chain position of the minted region in a minted replay
	chain  []RegionID // the chain being walked
	offs   []int      // its regions' offsets
	pos    []int32    // region id → its position in the chain, -1 if absent
	mark   []uint32   // chain position → the walk step that found a child ending there
	step   uint32
	buf    []RegionID // the itemset at the walk's node, ascending time offset
	stack  []walkStep // the children each node of the walk's path descends to
}

// walkStep is a child the walk descends to and its last region's position.
type walkStep struct{ slot, at int32 }

// NewIncrementalMiner returns an empty miner over rt; Seed fills it from
// the table's bitmaps. rules is how many rules the caller expects the
// seeding to yield (0 when unknown); it only sizes the slot slab.
func NewIncrementalMiner(rt *RegionTable, cfg Config, rules int) *IncrementalMiner {
	cfg = cfg.withDefaults()
	// At the fleet's shape every frequent itemset clears the confidence
	// floor; the roots are the regions that start a two-region itemset.
	m := &IncrementalMiner{rt: rt, cfg: cfg, slots: make([]slot, 0, rules+rt.Len()),
		buf: make([]RegionID, 0, MaxIdentityLen)}
	m.growRegions()
	return m
}

// UseRows names the table whose rows the owner's tags are — reevaluate
// reads what an active rule last emitted from its row, so the miner keeps
// no copy of it — and ends the binding that follows a seed, dropping
// Bind's tables.
func (m *IncrementalMiner) UseRows(t *Table) { m.rows, m.binds = t, nil }

// TrackedItemsets returns how many frequent itemsets the miner tracks.
func (m *IncrementalMiner) TrackedItemsets() int { return m.tracked }

// Bytes returns the capacity, in bytes, of what the miner keeps between
// passes: the slot slab, the region roots and the free list, and the walk's
// queue and position tables.
func (m *IncrementalMiner) Bytes() int {
	const word = int(unsafe.Sizeof(int32(0)))
	return cap(m.slots)*int(unsafe.Sizeof(slot{})) +
		(cap(m.roots)+cap(m.free)+cap(m.queue)+cap(m.pos)+cap(m.mark))*word
}

// ActiveRules returns the current rule set, sorted deterministically.
func (m *IncrementalMiner) ActiveRules() []Pattern {
	var active []int32
	for s := range m.slots {
		if m.slots[s].flags&slotActive != 0 {
			active = append(active, int32(s))
		}
	}
	return m.Rules(active).Patterns()
}

// Bind names the active rule whose itemset is ids, ascending time offset —
// a rule row's premise, then its consequence — and returns its slot, for
// Rule to read what it emits. ok is false when no active rule has that
// itemset or it is named already, so binding an owner's rules one by one
// finds the ones the miner no longer has and the duplicates. The slot is
// found by the walk down from the first region's root, each step a read of
// the premise's children by region (children). Call it only between Seed
// and UseRows.
func (m *IncrementalMiner) Bind(ids []RegionID, tag int) (s int32, ok bool) {
	if len(ids) < 2 || int(ids[0]) >= len(m.roots) {
		return noSlot, false
	}
	s = m.roots[ids[0]]
	for n, id := range ids[1:] {
		if s == noSlot {
			return noSlot, false
		}
		s = m.children(n, s)[id] - 1
	}
	if s == noSlot || m.slots[s].flags&slotActive == 0 || m.slots[s].tag != NoTag {
		return noSlot, false
	}
	m.slots[s].tag = int32(tag)
	return s, true
}

// children returns the children of slot p, an itemset of n+1 regions, by
// their last region's id, each as its slot + 1 (0: none). Each length keeps
// the table of the last premise it was asked for: a rule table's rows run
// in the order the mining walk found them, so consecutive binds share their
// premises, and a reconcile reads each list about once.
func (m *IncrementalMiner) children(n int, p int32) []int32 {
	if m.binds == nil {
		m.binds = make([]bindTable, m.cfg.MaxLength)
	}
	b := &m.binds[n]
	switch {
	case b.kids == nil:
		b.kids = make([]int32, len(m.roots))
	case b.of == p:
		return b.kids
	default:
		for c := m.slots[b.of].head; c != noSlot; c = m.slots[c].next {
			b.kids[m.slots[c].last] = 0
		}
	}
	for c := m.slots[p].head; c != noSlot; c = m.slots[c].next {
		b.kids[m.slots[c].last] = c + 1
	}
	b.of = p
	return b.kids
}

// bindTable holds the children of slot of by region id (children).
type bindTable struct {
	of   int32
	kids []int32
}

// SetTag names the rule in slot s, a Delta.Added entry.
func (m *IncrementalMiner) SetTag(s int32, tag int) { m.slots[s].tag = int32(tag) }

// Rule returns what the active rule in slot s emits and its name, NoTag
// when it has none.
func (m *IncrementalMiner) Rule(s int32) (tag int, conf float64, support int) {
	return int(m.slots[s].tag), m.confidence(s), int(m.slots[s].support)
}

// Seed tracks every frequent itemset of the table and derives its rule,
// returning them all as additions. Each itemset is visited once, by the
// walk batch mining reads (walkItemsets), with its support and its
// premise's from the AND the walk carries, so seeded and batch-mined rules
// agree exactly. Call it once, on a new miner. It leaves the state a replay
// of every live chain through Update would, under another slot numbering
// and order of children, neither of which shows outside the miner.
func (m *IncrementalMiner) Seed() Delta {
	var d Delta
	// prem[n] is the slot of the n-region itemset on the walk's path. A
	// region gets its root with the first two-region itemset it starts; the
	// walk visits all of those before it moves on to the next region.
	var prem [MaxIdentityLen + 1]int32
	first := RegionID(-1)
	walkItemsets(m.rt, m.cfg, func(ids []RegionID, sup, premSup int) {
		n := len(ids)
		if n == 2 && ids[0] != first {
			first, prem[1] = ids[0], m.newSlot(noSlot, ids[0], 1)
			m.roots[first] = prem[1]
		}
		s := m.newSlot(prem[n-1], ids[n-1], n)
		prem[n] = s
		m.link(s, sup)
		d.Reevaluated++
		if float64(sup)/float64(premSup) >= m.cfg.MinConfidence {
			m.slots[s].flags |= slotActive
			d.Added = append(d.Added, s)
		}
	})
	return d
}

// Update absorbs the region chains of newly arrived sub-trajectories and
// retires the chains of expired ones, returning the rule-set delta. The
// region table must already hold the corresponding bitmap state: new
// subs' bits set (AbsorbDetailed), retired subs' bits cleared (ClearSub,
// with each chain captured by ChainOf beforehand).
func (m *IncrementalMiner) Update(added, retired [][]RegionID) Delta {
	m.queue, m.removed = m.queue[:0], nil
	m.enumerate(retired, opRetire, -1)
	m.enumerate(added, opAbsorb, -1)
	return m.reevaluate()
}

// AbsorbMinted registers a freshly minted region r: chains are the
// current full chains (ChainOf) of every sub-trajectory visiting it.
// Minting sets bits only in the new region's bitmap, so only itemsets
// containing r can have changed — the walk descends only the paths
// through r, and every itemset on them is new, so the delta holds only
// additions. Call it after the Update that absorbed those sub-trajectories.
func (m *IncrementalMiner) AbsorbMinted(r RegionID, chains [][]RegionID) Delta {
	m.queue, m.removed = m.queue[:0], nil
	m.enumerate(chains, opMinted, r)
	return m.reevaluate()
}

// enqueue queues s for re-evaluation, once per pass.
func (m *IncrementalMiner) enqueue(s int32) {
	if sl := &m.slots[s]; sl.flags&slotQueued == 0 {
		sl.flags |= slotQueued
		m.queue = append(m.queue, s)
	}
}

// newSlot gives the itemset of n regions that ends at last, below premise
// slot prem (noSlot for a root), an untracked slot of its own.
func (m *IncrementalMiner) newSlot(prem int32, last RegionID, n int) int32 {
	var s int32
	if k := len(m.free); k > 0 {
		s, m.free = m.free[k-1], m.free[:k-1]
	} else {
		s = int32(len(m.slots))
		m.slots = append(m.slots, slot{})
	}
	// The queued bit survives reuse: a slot freed and retaken inside one
	// pass may be in the queue already.
	m.slots[s] = slot{tag: NoTag, prem: prem, head: noSlot, next: noSlot,
		last: last, n: uint8(n), flags: m.slots[s].flags & slotQueued}
	return s
}

// link starts tracking the itemset in slot s, of support sup, as the first
// child of its premise.
func (m *IncrementalMiner) link(s int32, sup int) {
	sl := &m.slots[s]
	p := &m.slots[sl.prem]
	sl.flags |= slotTracked
	sl.support, sl.next, p.head = int32(sup), p.head, s
	m.tracked++
}

// release returns slot s to the free list: nothing is left in it but the
// queued bit, which the pass's end clears.
func (m *IncrementalMiner) release(s int32) {
	m.slots[s] = slot{tag: NoTag, prem: noSlot, head: noSlot, next: noSlot,
		flags: m.slots[s].flags & slotQueued}
	m.free = append(m.free, s)
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

// reevaluate ends a pass: it clears the pass's bits, derives the rule of
// every queued itemset and diffs it against what the rule's row holds.
func (m *IncrementalMiner) reevaluate() Delta {
	d := Delta{Updated: m.queue[:0]} // filtered in place: never ahead of the read
	for _, s := range m.queue {
		sl := &m.slots[s]
		sl.flags &^= slotQueued | slotFresh
		if sl.flags&slotTracked == 0 {
			continue // demoted or freed after it was queued
		}
		d.Reevaluated++
		conf := m.confidence(s)
		ok, was := conf >= m.cfg.MinConfidence, sl.flags&slotActive != 0
		switch {
		case ok && !was:
			sl.flags |= slotActive
			d.Added = append(d.Added, s)
		case ok && was && m.moved(sl, conf):
			d.Updated = append(d.Updated, s)
		case !ok && was:
			sl.flags &^= slotActive
			m.removed = append(m.removed, sl.tag)
			sl.tag = NoTag
		}
	}
	d.Removed = m.removed
	return d
}

// moved reports whether an active rule's confidence or support differs
// from what its row holds; a rule with no row has moved.
func (m *IncrementalMiner) moved(sl *slot, conf float64) bool {
	row := int(sl.tag)
	return m.rows == nil || row == NoTag || conf != m.rows.Confidence(row) || int(sl.support) != m.rows.Support(row)
}

// confidence derives the one candidate rule of a frequent itemset (pruned
// rule generation: monotone premise, single max-offset consequence).
func (m *IncrementalMiner) confidence(s int32) float64 {
	sl := &m.slots[s]
	p := &m.slots[sl.prem] // tracked, by anti-monotonicity, or a region's root
	premSup := int(p.support)
	if sl.n == 2 {
		premSup = m.rt.Region(p.last).Support
	}
	return float64(sl.support) / float64(premSup)
}

// idsOf writes the itemset of slot s, ascending time offset, into buf's
// backing array, which must hold MaxIdentityLen ids, and returns it: the
// walk up its premise links.
func (m *IncrementalMiner) idsOf(s int32, buf []RegionID) []RegionID {
	ids := buf[:m.slots[s].n]
	for i := len(ids) - 1; i >= 0; i-- {
		ids[i], s = m.slots[s].last, m.slots[s].prem
	}
	return ids
}

// Rules sorts slots, each holding an active rule, into CompareIdentity
// order in place and returns the rules as emitted, one table row each, in
// that order.
func (m *IncrementalMiner) Rules(slots []int32) *Table {
	type keyed struct {
		key IdentityKey
		s   int32
	}
	var buf [MaxIdentityLen]RegionID
	order := make([]keyed, len(slots))
	total := 0
	for i, s := range slots {
		order[i] = keyed{identityOf(m.idsOf(s, buf[:0])), s}
		total += int(m.slots[s].n) - 1
	}
	slices.SortFunc(order, func(a, b keyed) int { return CompareIdentity(a.key, b.key) })
	out := NewTable(len(slots), total)
	for i, o := range order {
		slots[i] = o.s
		ids := m.idsOf(o.s, buf[:0])
		out.Append(Pattern{Premise: ids[:len(ids)-1], Consequence: ids[len(ids)-1],
			Confidence: m.confidence(o.s), Support: int(m.slots[o.s].support)})
	}
	return out
}

// growRegions widens the region-indexed tables to the region table's
// length: roots start absent, positions outside any chain.
func (m *IncrementalMiner) growRegions() {
	for len(m.roots) < m.rt.Len() {
		m.roots = append(m.roots, noSlot)
		m.pos = append(m.pos, -1)
	}
}

// enumerate walks each chain through the tree. A chain holds at most one
// region per time offset, ascending by offset — one period's
// sub-trajectory — so every itemset it contains is a path down from one of
// its regions' roots through children whose last region it holds. A minted
// replay starts only at the regions up to the minted one.
func (m *IncrementalMiner) enumerate(chains [][]RegionID, op minerOp, minted RegionID) {
	if m.cfg.MaxLength < 2 {
		return
	}
	m.growRegions()
	m.op = op
	for _, chain := range chains {
		m.chain, m.offs = chain, m.offs[:0]
		for i, id := range chain {
			m.pos[id] = int32(i)
			m.offs = append(m.offs, m.rt.Region(id).Offset)
		}
		if n := len(chain); len(m.mark) < n {
			m.mark = append(m.mark, make([]uint32, n-len(m.mark))...)
		}
		starts := len(chain)
		if op == opMinted {
			m.minted = int(m.pos[minted])
			starts = m.minted + 1
		}
		for i := 0; i < starts; i++ {
			r := chain[i]
			m.buf = append(m.buf[:0], r)
			var root int32
			if op == opMinted && i < m.minted {
				root = m.walkPrefix(m.roots[r], i, i)
			} else {
				root = m.walk(m.roots[r], i, i)
			}
			if root != noSlot && m.slots[root].head == noSlot {
				m.release(root)
				root = noSlot
			}
			m.roots[r] = root
		}
		for _, id := range chain {
			m.pos[id] = -1
		}
	}
}

// walk handles the node p — the itemset in m.buf, its first and last
// regions at chain positions first and at, noSlot for a region with no
// root — and returns its slot, which absorbing may create. It queues every
// child (the chain visited the premise, so each child's confidence moved)
// and applies the pass to those the chain contains; absorbing, it checks
// every other extension by a later chain region against the bitmaps; then
// it descends the children the chain contains that can be premises.
func (m *IncrementalMiner) walk(p int32, first, at int) int32 {
	n, cfg := len(m.buf), m.cfg
	if m.step++; m.step == 0 {
		clear(m.mark)
		m.step = 1
	}
	step, base, demoted := m.step, len(m.stack), false
	if p != noSlot {
		for c := m.slots[p].head; c != noSlot; c = m.slots[c].next {
			if m.op != opMinted {
				m.enqueue(c)
			}
			if j := int(m.pos[m.slots[c].last]); j > at {
				m.mark[j] = step
				m.visit(c)
				demoted = demoted || m.slots[c].flags&slotTracked == 0
				m.stack = append(m.stack, walkStep{c, int32(j)})
			}
		}
	}
	if m.op != opRetire && n < cfg.MaxLength {
		for j := at + 1; j < len(m.chain); j++ {
			if n >= 2 && cfg.ConsequenceReach >= 0 && m.offs[j]-m.offs[at] > cfg.ConsequenceReach {
				break
			}
			if m.mark[j] == step {
				continue
			}
			m.buf = append(m.buf, m.chain[j])
			if validItemset(m.rt, cfg, m.buf) {
				var c int32
				if p, c = m.trackOnDemand(p); c != noSlot {
					m.stack = append(m.stack, walkStep{c, int32(j)})
				}
			}
			m.buf = m.buf[:n]
		}
	}
	if n+1 < cfg.MaxLength {
		for i, top := base, len(m.stack); i < top; i++ {
			c, j := m.stack[i].slot, int(m.stack[i].at)
			if cfg.PremiseSpan < 0 || m.offs[j]-m.offs[first] <= cfg.PremiseSpan {
				m.buf = append(m.buf, m.chain[j])
				m.walk(c, first, j)
				m.buf = m.buf[:n]
			}
		}
	}
	m.stack = m.stack[:base]
	if !demoted {
		return p
	}
	// Release the children the retire demoted and left childless.
	for link := &m.slots[p].head; *link != noSlot; {
		if c := *link; m.slots[c].flags&slotTracked == 0 && m.slots[c].head == noSlot {
			*link = m.slots[c].next
			m.release(c)
		} else {
			link = &m.slots[c].next
		}
	}
	return p
}

// walkPrefix is walk for a minted replay's node p that ends before the
// minted region, at chain position m.minted. The only child the replay
// gives p is p and the minted region, at the head of p's list once made;
// when that is no frequent itemset, no itemset through p and the minted
// region is either, and the walk stops. Otherwise it descends into that
// child, and into every child of p the chain contains before the minted
// region that can be a premise.
func (m *IncrementalMiner) walkPrefix(p int32, first, at int) int32 {
	n, cfg, r := len(m.buf), m.cfg, m.minted
	c := noSlot
	if p != noSlot {
		if h := m.slots[p].head; h != noSlot && m.slots[h].last == m.chain[r] {
			c = h
		}
	}
	m.buf = append(m.buf, m.chain[r])
	if c == noSlot && validItemset(m.rt, cfg, m.buf) {
		p, c = m.trackOnDemand(p)
	}
	// Past here the walk extends premises of n+1 regions.
	premises := c != noSlot && n+2 <= cfg.MaxLength
	span := func(j int) bool { return cfg.PremiseSpan < 0 || m.offs[j]-m.offs[first] <= cfg.PremiseSpan }
	if premises && span(r) {
		m.walk(c, first, r)
	}
	m.buf = m.buf[:n]
	if !premises {
		return p
	}
	for c := m.slots[p].head; c != noSlot; c = m.slots[c].next {
		if j := int(m.pos[m.slots[c].last]); j > at && j < r && span(j) {
			m.buf = append(m.buf, m.chain[j])
			m.walkPrefix(c, first, j)
			m.buf = m.buf[:n]
		}
	}
	return p
}

// visit applies the pass to a tracked child of the walk's node. Absorbing,
// it gains one support unless the bitmaps set it this pass; retiring, it
// loses one, and below min-support becomes a ghost until the walk has
// retired its children; a minted replay tracked it this pass itself.
func (m *IncrementalMiner) visit(c int32) {
	sl := &m.slots[c]
	switch m.op {
	case opAbsorb:
		if sl.flags&slotFresh == 0 {
			sl.support++
		}
		m.enqueue(c)
	case opRetire:
		if sl.support--; int(sl.support) >= m.cfg.MinSupport {
			m.enqueue(c)
			return
		}
		if sl.flags&slotActive != 0 {
			m.removed = append(m.removed, sl.tag)
		}
		sl.flags &^= slotTracked | slotActive
		sl.support, sl.tag = 0, NoTag
		m.tracked--
	}
}

// trackOnDemand starts tracking m.buf, the walk's node p extended by one
// region, when the bitmaps — which include every chain of the batch, so
// the fresh bit stops later chains adding on top — say it is frequent. It
// returns p, given a root if it had none, and the new slot or noSlot.
func (m *IncrementalMiner) trackOnDemand(p int32) (int32, int32) {
	sup := bitmapSupport(m.rt, m.buf)
	if sup < m.cfg.MinSupport {
		return p, noSlot
	}
	n := len(m.buf)
	if p == noSlot {
		p = m.newSlot(noSlot, m.buf[0], 1)
	}
	s := m.newSlot(p, m.buf[n-1], n)
	m.link(s, sup)
	m.slots[s].flags |= slotFresh
	m.enqueue(s)
	return p, s
}
