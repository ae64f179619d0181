package pattern

import (
	"cmp"
	"math/bits"
	"slices"
)

// Config controls the Apriori stage of pattern discovery. The DBSCAN stage
// is configured at DiscoverRegions time (Eps, MinPts); this struct covers
// rule derivation.
type Config struct {
	// MinSupport is the minimum number of sub-trajectories that must
	// exhibit a pattern. Values <= 0 default to DefaultMinSupport.
	MinSupport int
	// MinConfidence is the minimum rule confidence in [0,1]; the paper's
	// default is 0.3.
	MinConfidence float64
	// MaxLength caps the number of regions per pattern, consequence
	// included. Values <= 0 default to DefaultMaxLength; values above
	// MaxIdentityLen clamp to it so every itemset's identity fits a fixed
	// comparable key. The paper leaves pattern length unbounded in
	// principle; in practice Apriori over period-length transactions needs
	// a cap, and queries only ever match premises drawn from a short
	// recent-movement window.
	MaxLength int
	// PremiseSpan caps the offset distance between the first and the last
	// premise region. Negative means unlimited; 0 defaults to
	// DefaultPremiseSpan.
	PremiseSpan int
	// ConsequenceReach caps the offset gap between the last premise region
	// and the consequence, but only for patterns with two or more premise
	// regions. Single-premise patterns stay unconstrained — Backward Query
	// Processing depends on rules reaching arbitrarily far consequences,
	// while multi-premise refinement only ever helps Forward Query
	// Processing, whose horizon is the distant-time threshold. Negative
	// means unlimited; 0 defaults to DefaultConsequenceReach. Exact for
	// MaxLength <= 3 (the default); with longer patterns it additionally
	// prunes some candidates whose subsets fall outside the bound.
	ConsequenceReach int
	// CountUnpruned additionally enumerates the rules classic Apriori rule
	// generation would emit, filling Stats.UnprunedRules. The
	// enumeration costs a multiple of the mining itself, so it is off by
	// default and enabled by the pruning-effect ablation.
	CountUnpruned bool
}

// Defaults for Config fields left at their zero value.
const (
	DefaultMinSupport       = 2
	DefaultMaxLength        = 3
	DefaultPremiseSpan      = 3
	DefaultConsequenceReach = 60
)

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = DefaultMinSupport
	}
	if c.MaxLength <= 0 {
		c.MaxLength = DefaultMaxLength
	}
	if c.MaxLength > MaxIdentityLen {
		c.MaxLength = MaxIdentityLen
	}
	if c.PremiseSpan == 0 {
		c.PremiseSpan = DefaultPremiseSpan
	}
	if c.ConsequenceReach == 0 {
		c.ConsequenceReach = DefaultConsequenceReach
	}
	return c
}

// Pattern is a trajectory pattern (Definition 1): a premise of frequent
// regions with strictly increasing time offsets implying a single
// consequence region at a later offset, with a confidence.
type Pattern struct {
	Premise     []RegionID // ascending time offset (== ascending id until regions are minted)
	Consequence RegionID
	Confidence  float64
	Support     int // sub-trajectories exhibiting premise ∧ consequence
}

// Stats reports mining effort and the effect of the paper's pruning rules.
type Stats struct {
	FrequentItemsets int // frequent region sets of size >= 2
	Rules            int // patterns emitted (pruned rule generation)
	// UnprunedRules is how many rules classic Apriori rule generation
	// would emit from the same frequent itemsets: every non-empty
	// premise/consequence partition that clears MinConfidence, including
	// time-reversed rules and multi-region consequences. The paper reports
	// a 58% reduction from pruning; ReductionPct reproduces that number.
	// Only filled when Config.CountUnpruned is set.
	UnprunedRules int
}

// ReductionPct returns the percentage of rules eliminated by the pruning.
func (s Stats) ReductionPct() float64 {
	if s.UnprunedRules == 0 {
		return 0
	}
	return 100 * float64(s.UnprunedRules-s.Rules) / float64(s.UnprunedRules)
}

// Mine derives trajectory patterns from the frequent regions in rt.
func Mine(rt *RegionTable, cfg Config) []Pattern {
	rules, _ := MineWithStats(rt, cfg)
	if rules.Len() == 0 {
		return nil
	}
	return rules.Patterns()
}

// MineWithStats is Mine as a table, plus effort statistics, including the
// unpruned rule count used by the pruning-effect ablation.
//
// Pruned rule generation derives exactly one candidate rule per frequent
// itemset: its max-offset region is the consequence, the rest the premise.
// Rules come out shortest first and, within one length, in lexicographic
// order of their regions — the order level-wise Apriori produced them in,
// which assigns engine refs, and refs break ranking ties. The walk visits
// each length's itemsets in that order; a list per length restores the
// levels.
func MineWithStats(rt *RegionTable, cfg Config) (*Table, Stats) {
	cfg = cfg.withDefaults()
	var stats Stats
	if rt.Len() == 0 || rt.NumSubTrajectories() == 0 {
		return NewTable(0, 0), stats
	}
	// supports indexes every frequent itemset, single regions included,
	// for classic rule counting.
	var supports map[IdentityKey]int
	if cfg.CountUnpruned {
		supports = make(map[IdentityKey]int)
		for _, fr := range rt.regions {
			if fr.Support >= cfg.MinSupport {
				supports[identityOf([]RegionID{fr.ID})] = fr.Support
			}
		}
	}
	// The rules of each length as pointer-free records, and their premises
	// back to back.
	var rules [MaxIdentityLen + 1][]rule
	var premises [MaxIdentityLen + 1][]RegionID
	walkItemsets(rt, cfg, func(ids []RegionID, sup, premSup int) {
		stats.FrequentItemsets++
		if supports != nil {
			supports[identityOf(ids)] = sup
		}
		if conf := float64(sup) / float64(premSup); conf >= cfg.MinConfidence {
			k := len(ids)
			premises[k] = append(premises[k], ids[:k-1]...)
			rules[k] = append(rules[k], rule{conf: conf, consequence: int32(ids[k-1]), support: int32(sup)})
			stats.Rules++
		}
	})
	if cfg.CountUnpruned {
		stats.UnprunedRules = countUnprunedRules(supports, cfg.MinConfidence)
	}
	ids := 0
	for _, ps := range premises {
		ids += len(ps)
	}
	t := NewTable(stats.Rules, ids)
	for k, rs := range rules {
		t.premises = append(t.premises, premises[k]...)
		for _, r := range rs {
			t.starts = append(t.starts, t.starts[len(t.starts)-1]+int32(k-1))
			t.conseqs = append(t.conseqs, r.consequence)
			t.confs = append(t.confs, r.conf)
			t.supports = append(t.supports, r.support)
		}
	}
	return t, stats
}

// rule is one mined rule while MineWithStats collects them: a Pattern less
// its premise, in 16 bytes and no pointer for the collector's growing
// slices to carry. Region ids and supports count regions and periods, far
// below 2³¹.
type rule struct {
	conf                 float64
	consequence, support int32
}

// countUnprunedRules counts the rules classic Apriori rule generation would
// emit from the frequent itemsets in supports: every partition of each
// itemset into a non-empty premise and a non-empty consequence whose
// confidence clears minConf. All such subsets are themselves frequent
// (Apriori property) so their supports are available in the index.
func countUnprunedRules(supports map[IdentityKey]int, minConf float64) int {
	count := 0
	for key, sup := range supports {
		k := 0
		for k < MaxIdentityLen && key[k] != 0 {
			k++
		}
		// Enumerate premise subsets by bitmask; mask bits select premise
		// members. Skip the empty and the full mask. A subsequence of a
		// sorted key is sorted: the premise's own identity.
		for mask := 1; mask < (1<<k)-1; mask++ {
			var premise IdentityKey
			n := 0
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					premise[n] = key[i]
					n++
				}
			}
			premSup, ok := supports[premise]
			if !ok {
				// The subset fell outside the bounded search (premise-span
				// or length caps); classic Apriori would have counted it,
				// but its support is unknown here, so skip conservatively.
				continue
			}
			if float64(sup)/float64(premSup) >= minConf {
				count++
			}
		}
	}
	return count
}

// walkItemsets hands visit every frequent itemset the pruned Apriori
// generates, with its support and its premise's (the itemset less its last
// region): two to cfg.MaxLength regions at strictly ascending offsets
// (Definition 1), a validItemset, and cfg.MinSupport visitors or more. cfg
// carries its defaults. Batch mining reads its rules from the walk and the
// incremental miner its seed.
//
// The walk is depth first over the frequent regions in (offset, index)
// order, so an itemset's prefixes come before it and, within one length,
// itemsets come in lexicographic order of their regions. A premise is
// extended only while its support clears MinSupport — support only falls
// as an itemset grows, so the cut is exact — and a premise of two or more
// regions only by consequences within ConsequenceReach. The premise's
// visitor AND rides down the recursion in one scratch slab sized from the
// table: a candidate costs one AND and popcount over the bitmaps, and the
// walk allocates nothing per itemset. ids is the walk's own buffer, valid
// during the call.
func walkItemsets(rt *RegionTable, cfg Config, visit func(ids []RegionID, sup, premSup int)) {
	w := walker{rt: rt, cfg: cfg, visit: visit, order: make([]*FrequentRegion, 0, rt.Len())}
	for _, fr := range rt.regions {
		if fr.Support >= cfg.MinSupport {
			w.order = append(w.order, fr)
		}
	}
	if len(w.order) == 0 || cfg.MaxLength < 2 {
		return
	}
	// Minted regions take the next id whatever their offset; this is the
	// order ChainOf gives a chain.
	slices.SortFunc(w.order, func(a, b *FrequentRegion) int {
		return cmp.Or(cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.Index, b.Index))
	})
	w.words = len(w.order[0].visitors.Words())
	w.ands = make([]uint64, (cfg.MaxLength-1)*w.words)
	w.path = make([]RegionID, 0, cfg.MaxLength)
	for i, fr := range w.order {
		w.path, w.first = append(w.path[:0], fr.ID), fr.Offset
		w.grow(i, fr.visitors.Words(), fr.Support)
	}
}

// walker is walkItemsets' state.
type walker struct {
	rt    *RegionTable
	cfg   Config
	visit func(ids []RegionID, sup, premSup int)
	order []*FrequentRegion // frequent regions, (offset, index) order
	path  []RegionID        // the premise being extended, then the itemset visited
	first int               // offset of path[0]
	words int               // visitor bitmap words per region
	ands  []uint64          // row n-1: the visitors' AND of an itemset of n+1 regions
}

// grow extends the premise on the path — its last region order[last], its
// visitors' AND prem and its support premSup — by every frequent region at
// a later offset, visiting each itemset that clears MinSupport and
// extending it in turn while it can still be a premise.
func (w *walker) grow(last int, prem []uint64, premSup int) {
	n, cfg := len(w.path), w.cfg
	lastOff := w.order[last].Offset
	and := w.ands[(n-1)*w.words : n*w.words]
	for c := last + 1; c < len(w.order); c++ {
		fr := w.order[c]
		if fr.Offset == lastOff {
			continue // one region per offset (Definition 1)
		}
		if n > 1 && cfg.ConsequenceReach >= 0 && fr.Offset-lastOff > cfg.ConsequenceReach {
			break
		}
		sup := 0
		for i, v := range fr.visitors.Words() {
			and[i] = prem[i] & v
			sup += bits.OnesCount64(and[i])
		}
		if sup < cfg.MinSupport {
			continue
		}
		w.path = append(w.path, fr.ID)
		if validItemset(w.rt, cfg, w.path) {
			w.visit(w.path, sup, premSup)
			if n+1 < cfg.MaxLength && (cfg.PremiseSpan < 0 || fr.Offset-w.first <= cfg.PremiseSpan) {
				w.grow(c, and, sup)
			}
		}
		w.path = w.path[:n]
	}
}

// validItemset reports whether an offset-ascending itemset is one the
// pruned Apriori generates: span and reach bounds at the top level, and —
// as level-wise Apriori only forms a k-itemset from generated
// (k-1)-itemsets, its two join parents included — the same holding
// recursively for every subset one element short. For the default
// MaxLength of 3 the recursion never fires.
func validItemset(rt *RegionTable, cfg Config, ids []RegionID) bool {
	k := len(ids)
	if k < 2 || k > cfg.MaxLength {
		return false
	}
	if k == 2 {
		return true
	}
	off := func(i int) int { return rt.Region(ids[i]).Offset }
	if cfg.PremiseSpan >= 0 && off(k-2)-off(0) > cfg.PremiseSpan {
		return false
	}
	if cfg.ConsequenceReach >= 0 && off(k-1)-off(k-2) > cfg.ConsequenceReach {
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
		if !validItemset(rt, cfg, sub) {
			return false
		}
	}
	return true
}
