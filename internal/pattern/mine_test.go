package pattern

import (
	"fmt"
	"reflect"
	"testing"

	"hpm/internal/bitkey"
	"hpm/internal/datagen"
	"hpm/internal/trajectory"
)

// refMine is the level-wise Apriori join MineWithStats ran before the walk
// replaced it, kept verbatim (less the candidate counter it fed) as the
// reference the walk is held to: the same patterns, in the same order, with
// the same confidences, and the same counts. It assumes region ids ascend
// with offsets, as discovery assigns them.
func refMine(rt *RegionTable, cfg Config) ([]Pattern, Stats) {
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
		next := joinLevel(rt, level, k, cfg)
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
		stats.UnprunedRules = refCountUnprunedRules(frequent, supports, cfg.MinConfidence)
	}
	return patterns, stats
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

// joinLevel performs the Apriori join+prune+count step producing the frequent
// k-itemsets from the frequent (k-1)-itemsets, honouring the paper's
// monotone-time constraint and the premise-span bound.
func joinLevel(rt *RegionTable, level []itemset, k int, cfg Config) []itemset {
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
		next = joinAt(next, rt, level, i, groupEnd[i], k, cfg, prev)
	}
	return next
}

// joinAt generates and support-counts every candidate k-itemset whose join
// parent a is level[i], joining against level[i+1:hi) (a's prefix group).
// It appends the surviving frequent itemsets to next in join order.
func joinAt(next []itemset, rt *RegionTable, level []itemset, i, hi, k int, cfg Config, prev map[string]bool) []itemset {
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
		visitors := keyAnd(a.visitors, b.visitors)
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

// refCountUnprunedRules counts the rules classic Apriori rule generation
// would emit from the given frequent itemsets: every partition of each
// itemset into a non-empty premise and a non-empty consequence whose
// confidence clears minConf. All such subsets are themselves frequent
// (Apriori property) so their supports are available in the index.
func refCountUnprunedRules(frequent []itemset, supports map[string]int, minConf float64) int {
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

// checkMine holds MineWithStats to refMine over rt: deeply equal patterns
// and equal counts.
func checkMine(t *testing.T, rt *RegionTable, cfg Config) ([]Pattern, Stats) {
	t.Helper()
	rules, gotStats := MineWithStats(rt, cfg)
	var got []Pattern // nil for none, as the join returns
	if rules.Len() > 0 {
		got = rules.Patterns()
	}
	want, wantStats := refMine(rt, cfg)
	if gotStats != wantStats {
		t.Fatalf("%+v: the walk counts %+v, the join %+v", cfg, gotStats, wantStats)
	}
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%+v: pattern %d of %d is %v, the join's %v", cfg, i, len(want), got[i], want[i])
			}
		}
		t.Fatalf("%+v: the walk mines %d patterns, the join %d", cfg, len(got), len(want))
	}
	return got, gotStats
}

// TestMineMatchesJoin holds the walk to the join on every dataset under
// the default bounds, longer patterns under a tight reach, unbounded
// five-region patterns, and the unpruned count. Each row says how long its
// longest pattern is, so none passes by mining less than it claims: under
// a reach of 1 no four-region itemset is valid, as its subset without the
// third region reaches two offsets.
func TestMineMatchesJoin(t *testing.T) {
	const period, days = 20, 16
	tables := make([]*RegionTable, len(datagen.Kinds))
	for i, kind := range datagen.Kinds {
		subs, err := datagen.Generate(datagen.Spec{Kind: kind, Period: period, SubTrajectories: days, Seed: int64(i) + 5}).Decompose(period)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = DiscoverRegions(trajectory.Groups(subs, 0), 30, 4)
	}
	for _, row := range []struct {
		cfg     Config
		longest int
	}{
		{Config{}, 3},
		{Config{MinSupport: 4, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 1}, 3},
		{Config{MinSupport: 4, MinConfidence: 0.3, MaxLength: 4, ConsequenceReach: 2}, 4},
		{Config{MinSupport: 4, MinConfidence: 0.3, MaxLength: 5, PremiseSpan: -1, ConsequenceReach: -1}, 5},
		{Config{MinSupport: 3, MinConfidence: 0.6, CountUnpruned: true}, 3},
	} {
		t.Run(fmt.Sprintf("%+v", row.cfg), func(t *testing.T) {
			longest, dropped := 0, false
			for _, rt := range tables {
				ps, stats := checkMine(t, rt, row.cfg)
				for _, p := range ps {
					longest = max(longest, len(p.Premise)+1)
				}
				dropped = dropped || stats.Rules < stats.FrequentItemsets
			}
			if longest != row.longest {
				t.Fatalf("the longest pattern has %d regions, want %d", longest, row.longest)
			}
			if row.cfg.MinConfidence > 0.5 && !dropped {
				t.Fatal("no itemset fell below the confidence floor; the row shows nothing")
			}
		})
	}
}

// FuzzMine holds the walk to the join over the tables FuzzMinerOps plays
// in: the founding table, then after every op of the stream (playOps)
// while region ids ascend with offsets, as the join assumes, under the
// bounds the first byte picks, counting unpruned rules where its third bit
// says.
func FuzzMine(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 0, 40, 16, 0, 121, 0, 3, 255, 0})
	f.Add([]byte{2, 0, 0, 0, 0, 5, 0, 0, 17, 0, 2, 2})
	f.Add([]byte{3, 0, 0, 16, 0, 0, 16, 0, 0, 16, 3, 15, 0, 2, 2, 2, 2, 2, 2, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := minerConfigs[int(data[0])%len(minerConfigs)]
		cfg.CountUnpruned = data[0]&4 != 0
		rt := minerTable()
		checkMine(t, rt, cfg)
		ordered := true
		playOps(t, rt, data[1:], func(op tableOp) {
			// A region minted before the last offset takes an id out of
			// offset order, which the join cannot mine.
			ordered = ordered && (op.minted < 0 || rt.Region(op.minted).Offset == minerP-1)
			if ordered {
				checkMine(t, rt, cfg)
			}
		})
	})
}

// keyAnd returns a & b as a new key.
func keyAnd(a, b bitkey.Key) bitkey.Key {
	out := bitkey.New(a.Len())
	for i, w := range a.Words() {
		out.Words()[i] = w & b.Words()[i]
	}
	return out
}
