package pattern

import (
	"fmt"
	"sort"
	"strings"

	"hpm/internal/bitkey"
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
	// CountUnpruned additionally enumerates the rules classic Apriori
	// rule generation would emit, filling Stats.UnprunedRules. The
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

// String renders the pattern in the paper's notation, e.g.
// "R_0^0 ^ R_1^0 --0.50--> R_2^0" (region names require the table).
func (p Pattern) String() string {
	var sb strings.Builder
	for i, id := range p.Premise {
		if i > 0 {
			sb.WriteString(" ^ ")
		}
		fmt.Fprintf(&sb, "r%d", id)
	}
	fmt.Fprintf(&sb, " --%.2f--> r%d", p.Confidence, p.Consequence)
	return sb.String()
}

// Stats reports mining effort and the effect of the paper's pruning rules.
type Stats struct {
	FrequentItemsets int // frequent region sets of size >= 2
	Candidates       int // candidate itemsets whose support was counted
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

// itemset is a sorted set of region ids with its visitor bitmap and support.
type itemset struct {
	ids      []RegionID
	visitors bitkey.Key
	support  int
}

// itemsetKey packs sorted region ids into a compact map key (4 bytes per
// id, little endian). Ids are dense ints well below 2^32.
func itemsetKey(ids []RegionID) string {
	b := make([]byte, 4*len(ids))
	for i, id := range ids {
		v := uint32(id)
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

// Mine derives trajectory patterns from the frequent regions in rt.
func Mine(rt *RegionTable, cfg Config) []Pattern {
	patterns, _ := MineWithStats(rt, cfg)
	return patterns
}

// MineWithStats is Mine plus effort statistics, including the unpruned rule
// count used by the pruning-effect ablation.
func MineWithStats(rt *RegionTable, cfg Config) ([]Pattern, Stats) {
	cfg = cfg.withDefaults()
	var stats Stats
	if rt.Len() == 0 || rt.NumSubTrajectories() == 0 {
		return nil, stats
	}

	// Level 1: frequent regions that clear MinSupport. DBSCAN already
	// enforces MinPts members, but MinSupport may be stricter.
	var level []itemset
	for _, fr := range rt.Regions() {
		if fr.Support >= cfg.MinSupport {
			level = append(level, itemset{
				ids:      []RegionID{fr.ID},
				visitors: fr.visitors,
				support:  fr.Support,
			})
		}
	}

	// supports indexes every frequent itemset found so far for confidence
	// computation and classic rule counting.
	supports := map[string]int{}
	for _, it := range level {
		supports[itemsetKey(it.ids)] = it.support
	}

	var patterns []Pattern
	var frequent []itemset // all frequent itemsets of size >= 2

	for k := 2; k <= cfg.MaxLength && len(level) > 0; k++ {
		next := joinLevel(rt, level, k, cfg, &stats)
		for _, it := range next {
			supports[itemsetKey(it.ids)] = it.support
			frequent = append(frequent, it)
			// Pruned rule generation: single consequence (the max-offset
			// region), monotone premise. Exactly one candidate rule per
			// frequent itemset.
			premise := it.ids[:len(it.ids)-1]
			premSup := supports[itemsetKey(premise)]
			conf := float64(it.support) / float64(premSup)
			if conf >= cfg.MinConfidence {
				p := Pattern{
					Premise:     append([]RegionID(nil), premise...),
					Consequence: it.ids[len(it.ids)-1],
					Confidence:  conf,
					Support:     it.support,
				}
				patterns = append(patterns, p)
			}
		}
		level = next
	}

	stats.FrequentItemsets = len(frequent)
	stats.Rules = len(patterns)
	if cfg.CountUnpruned {
		stats.UnprunedRules = countUnprunedRules(frequent, supports, cfg.MinConfidence)
	}
	return patterns, stats
}

// joinLevel performs the Apriori join+prune+count step producing the frequent
// k-itemsets from the frequent (k-1)-itemsets, honouring the paper's
// monotone-time constraint and the premise-span bound.
func joinLevel(rt *RegionTable, level []itemset, k int, cfg Config, stats *Stats) []itemset {
	// Group the (k-1)-itemsets by their first k-2 ids; itemsets inside a
	// group join pairwise. The previous level is generated in ascending id
	// order, so groups are contiguous runs. groupEnd[i] is the end of i's
	// run.
	groupEnd := make([]int, len(level))
	for lo := 0; lo < len(level); {
		hi := lo + 1
		for hi < len(level) && samePrefix(level[lo].ids, level[hi].ids) {
			hi++
		}
		for i := lo; i < hi; i++ {
			groupEnd[i] = hi
		}
		lo = hi
	}

	// Index the previous level for the subset-pruning test.
	prev := make(map[string]bool, len(level))
	for _, it := range level {
		prev[itemsetKey(it.ids)] = true
	}

	var next []itemset
	for i := range level {
		next = joinAt(next, rt, level, i, groupEnd[i], k, cfg, prev, stats)
	}
	return next
}

// joinAt generates and support-counts every candidate k-itemset whose join
// parent a is level[i], joining against level[i+1:hi) (a's prefix group).
// It appends the surviving frequent itemsets to next in join order and
// adds the candidates it counted to stats.
func joinAt(next []itemset, rt *RegionTable, level []itemset, i, hi, k int, cfg Config, prev map[string]bool, stats *Stats) []itemset {
	minSup := cfg.MinSupport
	a := level[i]
	lastA := a.ids[len(a.ids)-1]
	offLastA := rt.Region(lastA).Offset
	// The premise of every k-itemset joined from a is exactly a.ids; its
	// offset span is loop-invariant, so a too-wide a skips all joins at
	// once.
	if cfg.PremiseSpan >= 0 && k > 2 {
		if offLastA-rt.Region(a.ids[0]).Offset > cfg.PremiseSpan {
			return next
		}
	}
	for j := i + 1; j < hi; j++ {
		b := level[j]
		lastB := b.ids[len(b.ids)-1]
		offLastB := rt.Region(lastB).Offset
		// Monotone time: every region in a pattern occupies its own
		// offset; ids ascend with offsets, so only the new adjacent
		// pair needs the strictness check.
		if offLastB == offLastA {
			continue
		}
		// Multi-premise patterns only refine near-future queries;
		// cap how far their consequence reaches. The previous level
		// is sorted, so once one consequence is too far every later
		// one is as well.
		if cfg.ConsequenceReach >= 0 && k > 2 {
			if offLastB-offLastA > cfg.ConsequenceReach {
				break
			}
		}
		cand := make([]RegionID, 0, k)
		cand = append(cand, a.ids...)
		cand = append(cand, lastB)
		if !allSubsetsFrequent(cand, prev) {
			continue
		}
		stats.Candidates++
		visitors := a.visitors.And(b.visitors)
		sup := visitors.Size()
		if sup >= minSup {
			next = append(next, itemset{ids: cand, visitors: visitors, support: sup})
		}
	}
	return next
}

func samePrefix(a, b []RegionID) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori anti-monotonicity prune: every
// (k-1)-subset of cand must itself be frequent. The two join parents are
// frequent by construction; the remaining subsets are checked by lookup.
func allSubsetsFrequent(cand []RegionID, prev map[string]bool) bool {
	if len(cand) <= 2 {
		return true
	}
	sub := make([]RegionID, 0, len(cand)-1)
	for drop := 0; drop < len(cand)-2; drop++ {
		// Dropping the last or second-to-last id reproduces a join parent.
		sub = sub[:0]
		for i, id := range cand {
			if i != drop {
				sub = append(sub, id)
			}
		}
		if !prev[itemsetKey(sub)] {
			return false
		}
	}
	return true
}

// countUnprunedRules counts the rules classic Apriori rule generation would
// emit from the given frequent itemsets: every partition of each itemset
// into a non-empty premise and a non-empty consequence whose confidence
// clears minConf. All such subsets are themselves frequent (Apriori
// property) so their supports are available in the index.
func countUnprunedRules(frequent []itemset, supports map[string]int, minConf float64) int {
	count := 0
	var premise []RegionID
	for _, it := range frequent {
		k := len(it.ids)
		// Enumerate premise subsets by bitmask; mask bits select premise
		// members. Skip the empty and the full mask.
		for mask := 1; mask < (1<<k)-1; mask++ {
			premise = premise[:0]
			for i := 0; i < k; i++ {
				if mask&(1<<i) != 0 {
					premise = append(premise, it.ids[i])
				}
			}
			premSup, ok := supports[itemsetKey(premise)]
			if !ok {
				// The subset fell outside the bounded search (premise-span
				// or length caps); classic Apriori would have counted it,
				// but its support is unknown here, so skip conservatively.
				continue
			}
			if float64(it.support)/float64(premSup) >= minConf {
				count++
			}
		}
	}
	return count
}

// SortPatterns orders patterns deterministically: by consequence offset,
// then consequence id, then premise ids. Useful for stable output in tools
// and tests; Mine's output is already deterministic but not sorted this way.
func SortPatterns(rt *RegionTable, ps []Pattern) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		ao, bo := rt.Region(a.Consequence).Offset, rt.Region(b.Consequence).Offset
		if ao != bo {
			return ao < bo
		}
		if a.Consequence != b.Consequence {
			return a.Consequence < b.Consequence
		}
		for k := 0; k < len(a.Premise) && k < len(b.Premise); k++ {
			if a.Premise[k] != b.Premise[k] {
				return a.Premise[k] < b.Premise[k]
			}
		}
		return len(a.Premise) < len(b.Premise)
	})
}
