package hpa

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hpm/internal/bitkey"
	"hpm/internal/datagen"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// The query paths compute where Algorithm 3's widening ends, rank bare
// (score, confidence, ref) triples and read the TPT. The oracle below is
// the procedure as the paper words it, with none of that: it widens the
// window one step at a time, looks at every live pattern in turn (no
// tree), builds a full Prediction per hit and sorts them all. Every test
// in this file holds the engine to it with reflect.DeepEqual.

// oracle is a linear-scan reference over an engine's live patterns. The
// keys are encoded once per engine state: call newOracle again after any
// mutation (key widths may have grown).
type oracle struct {
	e    *Engine
	refs []int
	keys []bitkey.PatternKey
}

func newOracle(e *Engine) *oracle {
	o := &oracle{e: e}
	for ref, p := range e.patterns {
		if e.dead[ref] {
			continue
		}
		o.refs = append(o.refs, ref)
		o.keys = append(o.keys, e.enc.Encode(p))
	}
	return o
}

// consOffset is the time offset of a pattern's consequence region (§IV):
// what Equation 3 measures the query offset against.
func consOffset(e *Engine, ref int) int {
	return e.enc.RegionTable().Region(e.patterns[ref].Consequence).Offset
}

func (o *oracle) prediction(ref int, score float64, path Path) Prediction {
	p := o.e.patterns[ref]
	fr := o.e.enc.RegionTable().Region(p.Consequence)
	return Prediction{
		Location:          fr.Center,
		Score:             score,
		Confidence:        p.Confidence,
		PatternRef:        ref,
		Source:            SourcePattern,
		Path:              path,
		Extent:            fr.MBR,
		ConsequenceOffset: fr.Offset,
	}
}

// oracleRank sorts every candidate under the ranking order: score, then
// confidence, then lower ref. The answer for any k is a prefix of it.
func oracleRank(cands []Prediction) []Prediction {
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Confidence != b.Confidence {
			return a.Confidence > b.Confidence
		}
		return a.PatternRef < b.PatternRef
	})
	return cands
}

// top is the oracle's answer for one k: nil when nothing qualified.
func top(ranked []Prediction, k int) []Prediction {
	k = min(k, len(ranked))
	if k <= 0 {
		return nil
	}
	return ranked[:k]
}

// oracleForward is Algorithm 2 minus the fallback, every candidate ranked.
func (o *oracle) oracleForward(visited []pattern.RegionID, tq int) []Prediction {
	e := o.e
	if len(visited) == 0 {
		return nil
	}
	qk := e.enc.QueryKey(visited, mod(tq, e.cfg.Period))
	if qk.CK.IsZero() || qk.RK.IsZero() {
		return nil
	}
	var cands []Prediction
	for i, ref := range o.refs {
		if !o.keys[i].Intersects(qk) {
			continue
		}
		sr := PremiseSimilarity(o.keys[i].RK, qk.RK, e.cfg.Weight)
		cands = append(cands, o.prediction(ref, sr*e.patterns[ref].Confidence, PathForward))
	}
	return oracleRank(cands)
}

// oracleBackward is Algorithm 3 minus the fallback — the widening loop —
// with every candidate of the final window ranked.
func (o *oracle) oracleBackward(visited []pattern.RegionID, tc, tq int) []Prediction {
	e := o.e
	qrk := e.enc.RegionTable().PremiseKey(visited)
	ct := e.enc.ConsequenceTable()
	tqOff := mod(tq, e.cfg.Period)
	for i := 1; ; i++ {
		radius := i * e.cfg.TimeRelaxation
		ck := consequenceWindowKey(ct, tqOff, radius, e.cfg.Period)
		var cands []Prediction
		for j, ref := range o.refs {
			if !o.keys[j].CK.Intersects(ck) {
				continue
			}
			dist := circularDist(tqOff, consOffset(e, ref), e.cfg.Period)
			if dist > radius {
				continue
			}
			conf := e.patterns[ref].Confidence
			sc := 1 - float64(dist)/float64(radius+1) // Equation 3
			sr := PremiseSimilarity(o.keys[j].RK, qrk, e.cfg.Weight)
			var sp float64
			if e.cfg.PenalizePremise {
				sp = (sr*float64(e.cfg.DistantThreshold)/float64(tq-tc) + sc) * conf // Equation 5
			} else {
				sp = (sr + sc) * conf // Equation 4
			}
			cands = append(cands, o.prediction(ref, sp, PathBackward))
		}
		if len(cands) > 0 {
			return oracleRank(cands)
		}
		// Algorithm 3 line 8: widen only while the window's lower edge
		// stays after the current time.
		if tq-(i+1)*e.cfg.TimeRelaxation <= tc {
			return nil
		}
	}
}

// checkLiveCounts re-derives the per-offset live counts from the pattern
// slice and compares them with what the mutators maintained.
func checkLiveCounts(t *testing.T, e *Engine) {
	t.Helper()
	want := make([]int32, e.cfg.Period)
	live := 0
	for ref := range e.patterns {
		if e.dead[ref] {
			continue
		}
		live++
		if off := consOffset(e, ref); off >= 0 && off < len(want) {
			want[off]++
		}
	}
	if live != e.live {
		t.Fatalf("live = %d, recount %d", e.live, live)
	}
	if !reflect.DeepEqual(e.liveAt, want) {
		t.Fatalf("liveAt = %v\nrecount  %v", e.liveAt, want)
	}
	if e.tree.Len() != live {
		t.Fatalf("tree holds %d items, %d live patterns", e.tree.Len(), live)
	}
}

// checkAgainstOracle compares both pattern paths with the oracle for every
// tq in (tc, tc+span] and k in ks, from one recent window. FQP reads only
// tq's offset, so one period of query times covers it.
func checkAgainstOracle(t *testing.T, e *Engine, o *oracle, visited []pattern.RegionID, tc, span int, ks []int) {
	t.Helper()
	for tq := tc + 1; tq <= tc+span; tq++ {
		bqp := o.oracleBackward(visited, tc, tq)
		var fqp []Prediction
		if tq <= tc+e.cfg.Period {
			fqp = o.oracleForward(visited, tq)
		}
		for _, k := range ks {
			if got, want := e.BackwardQuery(visited, tc, tq, k), top(bqp, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("BQP tc=%d tq=%d k=%d visited=%v:\n got %+v\nwant %+v", tc, tq, k, visited, got, want)
			}
			if tq > tc+e.cfg.Period {
				continue
			}
			if got, want := e.ForwardQuery(visited, tq, k), top(fqp, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("FQP tq=%d k=%d visited=%v:\n got %+v\nwant %+v", tq, k, visited, got, want)
			}
		}
	}
}

// datasetFixture mines one datagen dataset the way core.Train does.
func datasetFixture(t *testing.T, kind datagen.Kind) (*trajectory.Trajectory, *pattern.RegionTable, []pattern.Pattern) {
	t.Helper()
	const period = 60
	days := 24
	if kind == datagen.Airplane {
		days = 72 // its sparse followers need more days to form regions
	}
	tr := datagen.Generate(datagen.Spec{Kind: kind, Period: period, SubTrajectories: days, Seed: 7})
	subs, err := tr.Decompose(period)
	if err != nil {
		t.Fatal(err)
	}
	rt := pattern.DiscoverRegions(trajectory.Groups(subs, 0), 30, 4)
	patterns := pattern.Mine(rt, pattern.Config{MinSupport: 4, MinConfidence: 0.3})
	if len(patterns) == 0 {
		t.Fatalf("%v: no patterns mined", kind)
	}
	return tr, rt, patterns
}

// recentWindows encodes a spread of recent windows of the trajectory.
func recentWindows(t *testing.T, e *Engine, tr *trajectory.Trajectory, period int) (tcs []int, visited [][]pattern.RegionID) {
	t.Helper()
	for _, tc := range []int{20*period + 3, 21*period + 31, 22*period + 59, 23 * period} {
		recent, err := tr.Recent(tc, 10)
		if err != nil {
			t.Fatal(err)
		}
		tcs = append(tcs, tc)
		visited = append(visited, e.EncodeRecent(recent))
	}
	return tcs, visited
}

// TestQueryPathsMatchOracleOnDatasets: engines trained from all four
// datasets answer every (recent window, tq, k) exactly as the oracle does,
// and keep doing so through a seeded sequence of inserts, removals and
// confidence updates. Part of the mined patterns is held back at build
// time, so the inserts also grow the consequence table out of order, and
// the removals empty whole offsets, which leaves table offsets no live
// pattern has — the case where liveAt and the table disagree.
func TestQueryPathsMatchOracleOnDatasets(t *testing.T) {
	const period = 60
	ks := []int{1, 3, 10}
	for _, kind := range datagen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			tr, rt, all := datasetFixture(t, kind)
			rng := rand.New(rand.NewSource(int64(kind) + 11))
			var held, initial []pattern.Pattern
			for _, p := range all {
				// Every fifth consequence offset is held back whole, so the
				// inserts meet offsets the table has never seen.
				if rt.Region(p.Consequence).Offset%5 == 0 || rng.Intn(4) == 0 {
					held = append(held, p)
				} else {
					initial = append(initial, p)
				}
			}
			rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
			enc := pattern.NewEncoder(rt, pattern.NewConsequenceTable(rt, initial))
			e, err := NewEngine(enc, initial, Config{Period: period, PenalizePremise: true}, tpt.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLiveCounts(t, e)
			t.Logf("%d patterns indexed, %d held back, %d consequence offsets", len(initial), len(held), enc.ConsequenceTable().Len())
			tcs, visited := recentWindows(t, e, tr, period)
			span := 3 * period
			if testing.Short() {
				span = period + 20
			}
			for w := range tcs {
				checkAgainstOracle(t, e, newOracle(e), visited[w], tcs[w], span, ks)
			}

			// Seeded mutation sequence; every step re-derives the counts,
			// every few steps re-runs a window against a fresh oracle.
			liveRefs := func() []int {
				var refs []int
				for ref := range e.patterns {
					if e.IsLive(ref) {
						refs = append(refs, ref)
					}
				}
				return refs
			}
			for step := 0; step < 60; step++ {
				refs := liveRefs()
				op := rng.Intn(6)
				if len(refs) == 0 {
					op = 0 // nothing left to retire or update
				}
				switch {
				case op <= 1:
					n := 1 + rng.Intn(200)
					if n > len(held) {
						n = len(held)
					}
					if got := e.InsertPatterns(held[:n]); len(got) != n {
						t.Fatalf("InsertPatterns returned %d refs for %d patterns", len(got), n)
					}
					held = held[n:]
				case op == 2:
					// Retire every live pattern of one consequence offset.
					off := consOffset(e, refs[rng.Intn(len(refs))])
					for _, ref := range refs {
						if consOffset(e, ref) == off && !e.RemovePattern(ref) {
							t.Fatalf("RemovePattern(%d) failed", ref)
						}
					}
				case op == 3:
					if ref := refs[rng.Intn(len(refs))]; !e.RemovePattern(ref) || e.RemovePattern(ref) {
						t.Fatalf("RemovePattern(%d): want true then false", ref)
					}
				default:
					ref := refs[rng.Intn(len(refs))]
					p := e.patterns[ref]
					p.Confidence = 0.3 + 0.7*rng.Float64()
					if !e.UpdatePattern(ref, p.Confidence, p.Support) {
						t.Fatalf("UpdatePattern(%d) failed", ref)
					}
				}
				checkLiveCounts(t, e)
				if step%6 == 5 {
					// Minted key widths change what EncodeRecent yields.
					w := rng.Intn(len(tcs))
					recent, err := tr.Recent(tcs[w], 10)
					if err != nil {
						t.Fatal(err)
					}
					checkAgainstOracle(t, e, newOracle(e), e.EncodeRecent(recent), tcs[w], period+30, ks)
				}
			}
		})
	}
}

// handEngine indexes single-premise patterns r(premise) → r(consequence)
// over a region table with one region per listed offset.
func handEngine(t *testing.T, cfg Config, offsets []int, rules [][3]float64) *Engine {
	t.Helper()
	groups := make([]trajectory.Group, len(offsets))
	for i, off := range offsets {
		g := trajectory.Group{Offset: off}
		for j := 0; j < 8; j++ {
			g.Points = append(g.Points, datagen.Extent.Min.Add(datagen.Extent.Max.Scale(float64(i+1)/100)))
		}
		groups[i] = g
	}
	rt := pattern.DiscoverRegions(groups, 30, 4)
	if rt.Len() != len(offsets) {
		t.Fatalf("hand fixture discovered %d regions, want %d", rt.Len(), len(offsets))
	}
	var patterns []pattern.Pattern
	for _, r := range rules {
		patterns = append(patterns, pattern.Pattern{
			Premise:     []pattern.RegionID{pattern.RegionID(r[0])},
			Consequence: pattern.RegionID(r[1]),
			Confidence:  r[2],
		})
	}
	enc := pattern.NewEncoder(rt, pattern.NewConsequenceTable(rt, patterns))
	e, err := NewEngine(enc, patterns, cfg, tpt.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkLiveCounts(t, e)
	return e
}

// sweep holds e to the oracle over every tc of one period, every tq up to
// 2·Period+2 after it, and the empty and both one-region premises.
func sweep(t *testing.T, e *Engine) { sweepEvery(t, e, 1) }

// sweepEvery is sweep over every stride-th tc, for periods where the whole
// sweep is minutes of oracle.
func sweepEvery(t *testing.T, e *Engine, stride int) {
	t.Helper()
	o := newOracle(e)
	var premises [][]pattern.RegionID
	premises = append(premises, nil)
	for id := 0; id < e.enc.RegionTable().Len() && id < 2; id++ {
		premises = append(premises, []pattern.RegionID{pattern.RegionID(id)})
	}
	for tc := 0; tc < e.cfg.Period; tc += stride {
		for _, v := range premises {
			checkAgainstOracle(t, e, o, v, tc, 2*e.cfg.Period+2, []int{1, 2, 5})
		}
	}
}

func TestBackwardQueryHandCases(t *testing.T) {
	t.Run("empty engine", func(t *testing.T) {
		e := handEngine(t, Config{Period: 10, DistantThreshold: 3}, []int{0, 1}, nil)
		if got := e.BackwardQuery(nil, 0, 5, 1); got != nil {
			t.Errorf("empty engine answered %+v", got)
		}
		sweep(t, e)
	})

	t.Run("diametrically opposite offset", func(t *testing.T) {
		// One live offset (1), query offset 21 of period 40: distance 20
		// either way round, reached by window 10 of tε = 2 and no earlier.
		e := handEngine(t, Config{Period: 40, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 1}, [][3]float64{{0, 1, 0.9}})
		if r, ok := e.firstWindow(21, 0, 21); !ok || r != 20 {
			t.Errorf("firstWindow = %d, %v; want 20, true", r, ok)
		}
		if got := e.BackwardQuery(nil, 0, 21, 1); len(got) != 1 || got[0].ConsequenceOffset != 1 {
			t.Errorf("tc=0 tq=21: %+v", got)
		}
		// tq − 10·2 must stay after tc: tc = 1 is exactly reached.
		if got := e.BackwardQuery(nil, 1, 21, 1); got != nil {
			t.Errorf("tc=1 tq=21 crossed the current time: %+v", got)
		}
		sweep(t, e)
	})

	t.Run("wrap across the period boundary", func(t *testing.T) {
		e := handEngine(t, Config{Period: 20, DistantThreshold: 3, TimeRelaxation: 3},
			[]int{0, 18, 19}, [][3]float64{{0, 1, 0.5}, {0, 2, 0.6}})
		// tq at offset 1 of the next period: offsets 19 and 18 are 2 and 3
		// steps behind it across the boundary; the base window takes both.
		got := e.BackwardQuery(nil, 30, 41, 2)
		if len(got) != 2 || got[0].ConsequenceOffset != 19 || got[1].ConsequenceOffset != 18 {
			t.Errorf("wrapped BQP: %+v", got)
		}
		sweep(t, e)
	})

	t.Run("window reaching tc exactly", func(t *testing.T) {
		// Live offset 10, tε = 2. From tq = 30 the distance is 20: window
		// 10. Algorithm 3 searches it only while 30 − 10·2 = 10 > tc.
		e := handEngine(t, Config{Period: 50, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 10}, [][3]float64{{0, 1, 0.9}})
		if got := e.BackwardQuery(nil, 9, 30, 1); len(got) != 1 {
			t.Errorf("tc=9: window 10 ends after tc, want an answer, got %+v", got)
		}
		if got := e.BackwardQuery(nil, 10, 30, 1); got != nil {
			t.Errorf("tc=10: window 10 reaches tc, want none, got %+v", got)
		}
		// The base window is searched whatever tc is.
		if got := e.BackwardQuery(nil, 11, 12, 1); len(got) != 1 {
			t.Errorf("base window skipped: %+v", got)
		}
		sweep(t, e)
	})

	t.Run("ties resolve to the lower ref", func(t *testing.T) {
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 7}, [][3]float64{{0, 1, 0.5}, {0, 1, 0.5}, {0, 1, 0.5}, {0, 1, 0.7}})
		got := e.BackwardQuery([]pattern.RegionID{0}, 0, 8, 4)
		var refs []int
		for _, p := range got {
			refs = append(refs, p.PatternRef)
		}
		if fmt.Sprint(refs) != "[3 0 1 2]" {
			t.Errorf("BQP rank order %v, want [3 0 1 2]", refs)
		}
		got = e.ForwardQuery([]pattern.RegionID{0}, 7, 2)
		if len(got) != 2 || got[0].PatternRef != 3 || got[1].PatternRef != 0 {
			t.Errorf("FQP rank order %+v, want refs 3 then 0", got)
		}
		sweep(t, e)
	})

	t.Run("window covering the whole period", func(t *testing.T) {
		// 2·radius+1 ≥ Period from the base window on.
		for _, period := range []int{3, 4, 5} {
			e := handEngine(t, Config{Period: period, DistantThreshold: 2, TimeRelaxation: 2},
				[]int{0, 2}, [][3]float64{{0, 1, 0.9}})
			for tq := 1; tq <= 2*period; tq++ {
				if got := e.BackwardQuery(nil, 0, tq, 1); len(got) != 1 {
					t.Errorf("period %d tq %d: %+v", period, tq, got)
				}
			}
			sweep(t, e)
		}
	})

	// The rows below are about the time id: BQP scores a hit by the position
	// of its consequence bit, read from the key the search has in hand.

	// everyOther is n regions at offsets 0, 2, 4, …, and fan the rules from
	// region 0 to each of regions lo..hi, no two confidences alike.
	everyOther := func(n int) []int {
		offs := make([]int, n)
		for i := range offs {
			offs[i] = 2 * i
		}
		return offs
	}
	fan := func(lo, hi int) (rules [][3]float64) {
		for c := lo; c <= hi; c++ {
			rules = append(rules, [3]float64{0, float64(c), 0.3 + 0.6*float64(c%17)/17})
		}
		return rules
	}
	asPatterns := func(rules [][3]float64) (ps []pattern.Pattern) {
		for _, r := range rules {
			ps = append(ps, pattern.Pattern{Premise: []pattern.RegionID{pattern.RegionID(r[0])},
				Consequence: pattern.RegionID(r[1]), Confidence: r[2]})
		}
		return ps
	}

	t.Run("consequence bit in a second word", func(t *testing.T) {
		// 74 distinct consequence offsets: time ids 64..73 sit in word two.
		e := handEngine(t, Config{Period: 150, DistantThreshold: 3, TimeRelaxation: 2}, everyOther(75), fan(1, 74))
		if n := e.enc.ConsequenceTable().Len(); n != 74 {
			t.Fatalf("%d consequence offsets, want 74", n)
		}
		// Offset 140 is time id 69: dead on tq, it outranks offsets 138 and
		// 142 at the window's edge.
		if got := e.BackwardQuery(nil, 100, 140, 1); len(got) != 1 || got[0].ConsequenceOffset != 140 {
			t.Errorf("tq=140: %+v, want the pattern at offset 140", got)
		}
		sweepEvery(t, e, 13)
	})

	t.Run("whole-period window over two words", func(t *testing.T) {
		// 2·radius+1 ≥ Period from the base window on: every hit of both
		// words is scored, each by its own distance.
		e := handEngine(t, Config{Period: 150, DistantThreshold: 3, TimeRelaxation: 75}, everyOther(75), fan(1, 74))
		if got := e.BackwardQuery(nil, 0, 7, 74); len(got) != 74 {
			t.Errorf("whole-period window returned %d of 74 patterns", len(got))
		}
		sweepEvery(t, e, 29)
	})

	t.Run("table grown out of sorted order", func(t *testing.T) {
		// The table starts as offsets [10 40]; AddOffset appends 5 and 25,
		// so time ids 2 and 3 name offsets smaller than id 1's.
		e := handEngine(t, Config{Period: 50, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 5, 10, 25, 40}, [][3]float64{{0, 2, 0.5}, {0, 4, 0.6}})
		e.InsertPatterns(asPatterns([][3]float64{{0, 1, 0.7}, {0, 3, 0.8}}))
		if got := fmt.Sprint(e.enc.ConsequenceTable().Offsets()); got != "[10 40 5 25]" {
			t.Fatalf("table offsets %s, want [10 40 5 25]", got)
		}
		checkLiveCounts(t, e)
		// From offset 6 the nearest is offset 5 (id 2), one step away; the
		// base window of radius 2 holds nothing else.
		if got := e.BackwardQuery(nil, 0, 6, 5); len(got) != 1 || got[0].ConsequenceOffset != 5 {
			t.Errorf("tq=6: %+v, want only the pattern at offset 5", got)
		}
		sweep(t, e)
	})

	t.Run("key width crossing a word between two queries", func(t *testing.T) {
		// 64 consequence offsets fill one word; the 65th, inserted between
		// two queries, restrides every key in the tree.
		e := handEngine(t, Config{Period: 150, DistantThreshold: 3, TimeRelaxation: 2}, everyOther(66), fan(1, 64))
		before := e.BackwardQuery(nil, 100, 127, 3)
		sweepEvery(t, e, 31)
		e.InsertPatterns(asPatterns(fan(65, 65)))
		if n := e.enc.ConsequenceTable().Len(); n != 65 {
			t.Fatalf("%d consequence offsets after the insert, want 65", n)
		}
		checkLiveCounts(t, e)
		if after := e.BackwardQuery(nil, 100, 127, 3); !reflect.DeepEqual(after, before) {
			t.Errorf("tq=127 moved across the regrowth:\n got %+v\nwant %+v", after, before)
		}
		if got := e.BackwardQuery(nil, 100, 131, 1); len(got) != 1 || got[0].ConsequenceOffset != 130 {
			t.Errorf("tq=131: %+v, want the inserted pattern at offset 130", got)
		}
		sweepEvery(t, e, 31)
	})

	t.Run("fixed-table AddPatterns", func(t *testing.T) {
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 5, 20}, [][3]float64{{0, 1, 0.9}})
		// Offset 20 is not in the consequence table: skipped, not counted.
		added, skipped := e.AddPatterns([]pattern.Pattern{
			{Premise: []pattern.RegionID{0}, Consequence: 1, Confidence: 0.4},
			{Premise: []pattern.RegionID{0}, Consequence: 2, Confidence: 0.4},
		})
		if added != 1 || skipped != 1 {
			t.Fatalf("AddPatterns = %d added, %d skipped", added, skipped)
		}
		checkLiveCounts(t, e)
		sweep(t, e)
	})
}

// FuzzBackwardQuery builds an engine out of the input — period, tε, a fan of
// single-premise rules over the offsets the bytes name, the first half
// indexed at build time and the rest inserted, so the consequence table
// grows in input order, then some removed — and holds BQP and FQP to the
// oracle from a spread of current times. The seeds run under plain go test.
func FuzzBackwardQuery(f *testing.F) {
	f.Add([]byte{60, 2, 0, 10, 200, 50, 90, 30, 120, 5, 40, 7, 9})
	f.Add([]byte{149, 1, 1, 140, 3, 139, 9, 138, 200, 2, 80, 70, 60, 50, 40, 30, 20, 10})
	f.Add([]byte{3, 4, 2, 1, 1, 2, 3})
	wide := []byte{129, 3, 5}
	for off := 128; off > 0; off -= 2 { // 64 offsets at build or insert: the table crosses a word
		wide = append(wide, byte(off), byte(37*off))
	}
	f.Add(wide)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		period, te, removals := 2+int(in[0])%149, 1+int(in[1])%5, int(in[2])%8
		offsets, seen := []int{0}, map[int]bool{0: true}
		var rules [][3]float64
		for in = in[3:]; len(in) >= 2 && len(rules) < 80; in = in[2:] {
			off := int(in[0]) % period
			if seen[off] {
				continue
			}
			seen[off] = true
			offsets = append(offsets, off)
			rules = append(rules, [3]float64{0, float64(len(offsets) - 1), 0.05 + float64(in[1])/300})
		}
		e := handEngine(t, Config{Period: period, DistantThreshold: 3, TimeRelaxation: te, PenalizePremise: period%2 == 0},
			offsets, rules[:len(rules)/2])
		var late []pattern.Pattern
		for _, r := range rules[len(rules)/2:] {
			late = append(late, pattern.Pattern{Premise: []pattern.RegionID{0},
				Consequence: pattern.RegionID(r[1]), Confidence: r[2]})
		}
		refs := e.InsertPatterns(late)
		for i := 0; i < removals && i < len(refs); i++ {
			e.RemovePattern(refs[i])
		}
		checkLiveCounts(t, e)
		sweepEvery(t, e, 1+period/3)
	})
}
