package pattern

import (
	"fmt"
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

// Delta is the rule-set change one incremental update produced. Removed
// must be applied before Added: a rule can be retired and re-promoted in
// the same update (its itemset dipped below min-support and came back).
type Delta struct {
	Added   []Pattern     // rules newly clearing support and confidence
	Updated []Pattern     // existing rules whose confidence/support moved
	Removed []IdentityKey // rules that no longer qualify
}

// Empty reports whether the delta changes nothing.
func (d Delta) Empty() bool {
	return len(d.Added) == 0 && len(d.Updated) == 0 && len(d.Removed) == 0
}

// trackedItemset is one frequent itemset's live state.
type trackedItemset struct {
	ids     []RegionID // ascending time offset
	support int
	epoch   uint64 // update epoch that set support from the bitmaps
}

// IncrementalMiner maintains the frequent-itemset state of delta-Apriori
// over a RegionTable. Chains fed to Update/AbsorbMinted must reflect
// bitmap state: the table's Absorb/ClearSub calls happen first, then the
// miner consumes the chains those calls implied.
//
// Not safe for concurrent use; callers serialize updates like any other
// model mutation.
type IncrementalMiner struct {
	rt    *RegionTable
	cfg   Config
	rules int // expected rule count of the seeding batch; a size hint only

	tracked   map[IdentityKey]*trackedItemset
	active    map[IdentityKey]Pattern // rules currently emitted
	byPremise map[IdentityKey]map[IdentityKey]struct{}
	epoch     uint64
}

// NewIncrementalMiner returns an empty miner over rt. Seed it by feeding
// every live sub-trajectory's chain to Update in one batch — the same
// code path later increments run through, so seeded state and batch-mined
// state agree exactly (see TestIncrementalMatchesBatch). rules is how many
// rules the caller expects the seeding to yield (0 when unknown); it only
// sizes the maps, which otherwise rehash a dozen times on the way there.
func NewIncrementalMiner(rt *RegionTable, cfg Config, rules int) *IncrementalMiner {
	return &IncrementalMiner{
		rt:        rt,
		cfg:       cfg.withDefaults(),
		rules:     rules,
		tracked:   make(map[IdentityKey]*trackedItemset, rules),
		active:    make(map[IdentityKey]Pattern, rules),
		byPremise: make(map[IdentityKey]map[IdentityKey]struct{}, rules),
	}
}

// TrackedItemsets returns how many frequent itemsets the miner tracks.
func (m *IncrementalMiner) TrackedItemsets() int { return len(m.tracked) }

// ActiveRules returns the current rule set, sorted deterministically.
func (m *IncrementalMiner) ActiveRules() []Pattern {
	keys := make([]IdentityKey, 0, len(m.active))
	for k := range m.active {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, CompareIdentity)
	out := make([]Pattern, len(keys))
	for i, k := range keys {
		out[i] = m.active[k]
	}
	return out
}

// Update absorbs the region chains of newly arrived sub-trajectories and
// retires the chains of expired ones, returning the rule-set delta. The
// region table must already hold the corresponding bitmap state: new
// subs' bits set (AbsorbDetailed), retired subs' bits cleared (ClearSub,
// with each chain captured by ChainOf beforehand).
func (m *IncrementalMiner) Update(added, retired [][]RegionID) Delta {
	m.epoch++
	// Every itemset a chain touches becomes a candidate; the seeding batch
	// touches all there will be.
	hint := 0
	if len(m.tracked) == 0 {
		hint = m.rules
	}
	candidates := make(map[IdentityKey][]RegionID, hint)
	removed := make(map[IdentityKey]bool)
	for _, ch := range retired {
		m.retireChain(ch, candidates, removed)
	}
	for _, ch := range added {
		m.absorbChain(ch, candidates)
	}
	return m.reevaluate(candidates, removed)
}

// AbsorbMinted registers a freshly minted region r: chains are the
// current full chains (ChainOf) of every sub-trajectory visiting it.
// Minting sets bits only in the new region's bitmap, so only itemsets
// containing r can have changed — the enumeration is restricted to them,
// and every such itemset is new, so the delta holds only additions.
// Shares the calling Update's epoch; call it after Update in the same
// logical batch.
func (m *IncrementalMiner) AbsorbMinted(r RegionID, chains [][]RegionID) Delta {
	candidates := make(map[IdentityKey][]RegionID)
	for _, ch := range chains {
		m.enumerate(ch, func(ids []RegionID) {
			if !containsRegion(ids, r) {
				return
			}
			key := identityOf(ids)
			if m.tracked[key] != nil {
				return // tracked earlier this replay, support already exact
			}
			m.trackOnDemand(key, ids, candidates)
		}, nil)
	}
	return m.reevaluate(candidates, nil)
}

func containsRegion(ids []RegionID, r RegionID) bool {
	for _, id := range ids {
		if id == r {
			return true
		}
	}
	return false
}

// absorbChain counts one new sub-trajectory's chain: every structurally
// valid itemset inside it gains one support, itemsets crossing
// min-support get tracked with their exact bitmap support, and rules
// whose premise the chain touches are queued for confidence
// re-evaluation.
func (m *IncrementalMiner) absorbChain(chain []RegionID, candidates map[IdentityKey][]RegionID) {
	m.enumerate(chain, func(ids []RegionID) {
		key := identityOf(ids)
		if it := m.tracked[key]; it != nil {
			if it.epoch != m.epoch {
				it.support++
			}
			candidates[key] = it.ids
			return
		}
		m.trackOnDemand(key, ids, candidates)
	}, func(prem []RegionID) {
		m.touchPremise(prem, candidates)
	})
}

// retireChain reverses absorbChain for one expired sub-trajectory.
func (m *IncrementalMiner) retireChain(chain []RegionID, candidates map[IdentityKey][]RegionID, removed map[IdentityKey]bool) {
	m.enumerate(chain, func(ids []RegionID) {
		key := identityOf(ids)
		it := m.tracked[key]
		if it == nil {
			return
		}
		it.support--
		if it.support < m.cfg.MinSupport {
			m.untrack(key, it)
			delete(candidates, key)
			if _, ok := m.active[key]; ok {
				delete(m.active, key)
				removed[key] = true
			}
			return
		}
		candidates[key] = it.ids
	}, func(prem []RegionID) {
		m.touchPremise(prem, candidates)
	})
}

// trackOnDemand starts tracking an itemset first touched this batch. Its
// support comes from the bitmaps — which already include every chain of
// the batch — so the epoch stamp tells later chains not to add on top.
func (m *IncrementalMiner) trackOnDemand(key IdentityKey, ids []RegionID, candidates map[IdentityKey][]RegionID) {
	sup := m.bitmapSupport(ids)
	if sup < m.cfg.MinSupport {
		return
	}
	it := &trackedItemset{ids: append([]RegionID(nil), ids...), support: sup, epoch: m.epoch}
	m.tracked[key] = it
	pk := identityOf(it.ids[:len(it.ids)-1])
	deps := m.byPremise[pk]
	if deps == nil {
		deps = make(map[IdentityKey]struct{})
		m.byPremise[pk] = deps
	}
	deps[key] = struct{}{}
	candidates[key] = it.ids
}

// untrack forgets a demoted itemset.
func (m *IncrementalMiner) untrack(key IdentityKey, it *trackedItemset) {
	delete(m.tracked, key)
	pk := identityOf(it.ids[:len(it.ids)-1])
	if deps := m.byPremise[pk]; deps != nil {
		delete(deps, key)
		if len(deps) == 0 {
			delete(m.byPremise, pk)
		}
	}
}

// touchPremise queues every tracked itemset whose premise the chain
// contains: its confidence denominator moved even if its own support did
// not (the sub-trajectory visited the premise but not the consequence).
func (m *IncrementalMiner) touchPremise(prem []RegionID, candidates map[IdentityKey][]RegionID) {
	deps := m.byPremise[identityOf(prem)]
	if deps == nil {
		return
	}
	for dep := range deps {
		if it := m.tracked[dep]; it != nil {
			candidates[dep] = it.ids
		}
	}
}

// bitmapSupport computes an itemset's exact support from the region
// bitmaps: the popcount of their AND. O(numSubs/64) words per region.
func (m *IncrementalMiner) bitmapSupport(ids []RegionID) int {
	a, b := m.rt.Region(ids[0]).visitors, m.rt.Region(ids[1]).visitors
	if len(ids) == 2 {
		return a.AndSize(b)
	}
	acc := a.And(b)
	for _, id := range ids[2:] {
		acc = acc.And(m.rt.Region(id).visitors)
	}
	return acc.Size()
}

// reevaluate derives rules for every touched itemset and diffs them
// against the active set, producing a deterministic delta (keys sorted).
func (m *IncrementalMiner) reevaluate(candidates map[IdentityKey][]RegionID, removed map[IdentityKey]bool) Delta {
	keys := make([]IdentityKey, 0, len(candidates))
	for k := range candidates {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, CompareIdentity)

	var d Delta
	if len(m.active) == 0 {
		// Nothing is active yet (the seeding batch): every candidate that
		// clears the confidence floor is an addition.
		d.Added = make([]Pattern, 0, min(len(keys), m.rules))
	}
	for _, key := range keys {
		it := m.tracked[key]
		if it == nil {
			continue
		}
		p, ok := m.rule(it)
		old, was := m.active[key]
		switch {
		case ok && !was:
			m.active[key] = p
			d.Added = append(d.Added, p)
		case ok && was && (p.Confidence != old.Confidence || p.Support != old.Support):
			m.active[key] = p
			d.Updated = append(d.Updated, p)
		case !ok && was:
			delete(m.active, key)
			if removed == nil {
				removed = make(map[IdentityKey]bool)
			}
			removed[key] = true
		}
	}
	for key := range removed {
		d.Removed = append(d.Removed, key)
	}
	slices.SortFunc(d.Removed, CompareIdentity)
	return d
}

// rule derives the one candidate rule of a frequent itemset (pruned rule
// generation: monotone premise, single max-offset consequence) and
// reports whether it clears MinConfidence.
func (m *IncrementalMiner) rule(it *trackedItemset) (Pattern, bool) {
	n := len(it.ids)
	premise := it.ids[:n-1]
	var premSup int
	if n == 2 {
		premSup = m.rt.Region(premise[0]).Support
	} else if pit := m.tracked[identityOf(premise)]; pit != nil {
		premSup = pit.support
	} else {
		// Anti-monotonicity keeps premises tracked while their itemset
		// is; fall back to the bitmaps defensively.
		premSup = m.bitmapSupport(premise)
	}
	conf := float64(it.support) / float64(premSup)
	p := Pattern{
		Premise:     append([]RegionID(nil), premise...),
		Consequence: it.ids[n-1],
		Confidence:  conf,
		Support:     it.support,
	}
	return p, conf >= m.cfg.MinConfidence
}

// validItemset reports whether an offset-ascending itemset is one the
// batch miner would generate: span and reach bounds at the top level,
// and — matching level-wise Apriori, which only forms a k-itemset from
// generated (k-1)-itemsets — the same holding recursively for every
// subset that drops one of the first k-2 elements. For the default
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
	for drop := 0; drop < k-2; drop++ {
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
// and every premise-shaped subset (size 1..MaxLength-1, premise-span
// bounded) of chain, in deterministic order. chain must hold at most one
// region per time offset, ascending by offset — the shape one period's
// sub-trajectory produces. Buffers passed to the callbacks are reused;
// callbacks must copy what they keep.
func (m *IncrementalMiner) enumerate(chain []RegionID, itemsetFn, premiseFn func([]RegionID)) {
	maxLen := m.cfg.MaxLength
	if maxLen < 2 || len(chain) < 1 {
		return
	}
	L := len(chain)
	offs := make([]int, L)
	for i, id := range chain {
		offs[i] = m.rt.Region(id).Offset
	}
	span, reach := m.cfg.PremiseSpan, m.cfg.ConsequenceReach
	buf := make([]RegionID, 0, maxLen)

	// grow is called with a premise of size >= 1 in buf; first/last are
	// the chain indices of its ends. Offsets ascend along the chain, so
	// the span and reach scans can break early.
	var grow func(first, last int)
	grow = func(first, last int) {
		n := len(buf)
		if premiseFn != nil {
			premiseFn(buf)
		}
		if itemsetFn != nil {
			for c := last + 1; c < L; c++ {
				if n >= 2 && reach >= 0 && offs[c]-offs[last] > reach {
					break
				}
				buf = append(buf, chain[c])
				if m.validItemset(buf) {
					itemsetFn(buf)
				}
				buf = buf[:n]
			}
		}
		if n+1 <= maxLen-1 {
			for nxt := last + 1; nxt < L; nxt++ {
				if span >= 0 && offs[nxt]-offs[first] > span {
					break
				}
				buf = append(buf, chain[nxt])
				grow(first, nxt)
				buf = buf[:n]
			}
		}
	}
	for i := 0; i < L; i++ {
		buf = append(buf[:0], chain[i])
		grow(i, i)
	}
}
