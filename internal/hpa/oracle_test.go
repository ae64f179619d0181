package hpa

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
// window one step at a time, reads every live pattern of every offset the
// window covers (no tree) and ranks every hit. Every test in this file
// holds the engine to it element for element (samePredictions).

// oracle is a scan reference over an engine's live patterns. The
// keys and confidences are read once per engine state: call newOracle
// again after any mutation (key widths may have grown).
//
// A scan reads only the patterns whose consequence offset it can match,
// from lists kept per offset, and what it finds depends only on the
// premise, the query offset and the window radius, so the oracle remembers
// each scan's hits under that key: the many query times of one recent
// window that share an offset and a radius rescan nothing. Only Equation
// 5's penalty reads tq itself, and it scales the premise term, which is 0
// for a hit that shares no region with the query: those hits are ranked
// once per window, the others scored per query and merged in.
// plainForward and plainBackward scan every live pattern per query with no
// memo; checkAgainstOracle holds the two to each other on a sample of
// queries.
type oracle struct {
	e     *Engine
	refs  []int
	keys  []bitkey.PatternKey
	confs []float64 // confidence per live pattern
	// byOff lists the patterns per consequence offset, by index, in
	// confidence order then ref order: the rank order of the hits one
	// offset contributes with no premise term.
	byOff [][]int

	forward map[scanKey][]scored  // FQP's ranked hits
	windows map[scanKey]bqpWindow // BQP's window hits
	cands   []scored              // BQP's last ranked answer
}

// bqpWindow is what one BQP window holds: the hits whose premise shares a
// region with the query, unscored, and the others, whose score is their
// time term times their confidence at any tq, ranked.
type bqpWindow struct {
	shared []hit
	rest   []scored
}

// scanKey names one scan: the premise (the visited regions, printed), the
// query offset, and for BQP the window radius.
type scanKey struct {
	premise     string
	off, radius int
}

// hit is one live pattern a BQP window holds, by index into the oracle's
// slices, with the two score terms that do not depend on tq.
type hit struct {
	i      int
	sc, sr float64 // Equation 3's time term, the premise similarity
}

// scored is one candidate reduced to what ranking reads; Predictions are
// built for the answers a test compares only.
type scored struct {
	score, conf float64
	ref         int
}

func newOracle(e *Engine) *oracle {
	o := &oracle{e: e, forward: map[scanKey][]scored{}, windows: map[scanKey]bqpWindow{},
		byOff: make([][]int, e.cfg.Period)}
	for ref, p := range e.rules.Patterns() {
		if e.dead[ref] {
			continue
		}
		off := consOffset(e, ref)
		o.byOff[off] = append(o.byOff[off], len(o.refs))
		o.refs = append(o.refs, ref)
		o.keys = append(o.keys, e.enc.Encode(p))
		o.confs = append(o.confs, p.Confidence)
	}
	for _, js := range o.byOff {
		slices.SortFunc(js, func(a, b int) int { return rankOrder(0, o.confs[a], o.refs[a], 0, o.confs[b], o.refs[b]) })
	}
	return o
}

// consOffset is the time offset of a pattern's consequence region (§IV):
// what Equation 3 measures the query offset against.
func consOffset(e *Engine, ref int) int {
	return e.enc.RegionTable().Region(e.Pattern(ref).Consequence).Offset
}

func (o *oracle) prediction(ref int, score float64, path Path) Prediction {
	p := o.e.Pattern(ref)
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

// rankOrder is the ranking order: score, then confidence, then lower ref.
func rankOrder(as, ac float64, ar int, bs, bc float64, br int) int {
	if as != bs {
		return cmp.Compare(bs, as)
	}
	if ac != bc {
		return cmp.Compare(bc, ac)
	}
	return cmp.Compare(ar, br)
}

// rank sorts every candidate under the ranking order. The answer for any k
// is a prefix of it.
func rank(cands []scored) []scored {
	slices.SortFunc(cands, func(a, b scored) int { return rankOrder(a.score, a.conf, a.ref, b.score, b.conf, b.ref) })
	return cands
}

// top is the oracle's answer for one k: nil when nothing qualified.
func (o *oracle) top(ranked []scored, k int, path Path) []Prediction {
	k = min(k, len(ranked))
	if k <= 0 {
		return nil
	}
	out := make([]Prediction, k)
	for i, c := range ranked[:k] {
		out[i] = o.prediction(c.ref, c.score, path)
	}
	return out
}

// prefix is the answer for k cut from the answer for a larger k.
func prefix(preds []Prediction, k int) []Prediction {
	if k = min(k, len(preds)); k <= 0 {
		return nil
	}
	return preds[:k]
}

// samePredictions is reflect.DeepEqual over two answers without the
// reflection: nil equals only nil, and the elements compare with ==.
func samePredictions(a, b []Prediction) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// oracleForward is Algorithm 2 minus the fallback, every candidate ranked.
// Its scores read tq's offset only, so the ranked list is remembered whole;
// the caller must not modify it.
func (o *oracle) oracleForward(visited []pattern.RegionID, tq int) []scored {
	e := o.e
	if len(visited) == 0 {
		return nil
	}
	key := scanKey{premise: fmt.Sprint(visited), off: mod(tq, e.cfg.Period)}
	if ranked, ok := o.forward[key]; ok {
		return ranked
	}
	var cands []scored
	qk := e.enc.QueryKey(visited, key.off)
	if !qk.CK.IsZero() && !qk.RK.IsZero() {
		for _, i := range o.byOff[key.off] {
			if o.keys[i].Intersects(qk) {
				sr := PremiseSimilarity(o.keys[i].RK, qk.RK, e.cfg.Weight)
				cands = append(cands, scored{score: sr * o.confs[i], conf: o.confs[i], ref: o.refs[i]})
			}
		}
	}
	o.forward[key] = rank(cands)
	return o.forward[key]
}

// oracleBackward is Algorithm 3 minus the fallback — the widening loop —
// with every candidate of the final window ranked. The list is valid until
// the next call.
func (o *oracle) oracleBackward(visited []pattern.RegionID, tc, tq int) []scored {
	e := o.e
	premise := fmt.Sprint(visited)
	tqOff := mod(tq, e.cfg.Period)
	for i := 1; ; i++ {
		w := o.window(visited, premise, tqOff, i*e.cfg.TimeRelaxation)
		if len(w.shared)+len(w.rest) > 0 {
			shared := make([]scored, len(w.shared))
			for j, h := range w.shared {
				conf := o.confs[h.i]
				var sp float64
				if e.cfg.PenalizePremise {
					sp = (h.sr*float64(e.cfg.DistantThreshold)/float64(tq-tc) + h.sc) * conf // Equation 5
				} else {
					sp = (h.sr + h.sc) * conf // Equation 4
				}
				shared[j] = scored{score: sp, conf: conf, ref: o.refs[h.i]}
			}
			o.cands = merge(o.cands[:0], rank(shared), w.rest)
			return o.cands
		}
		// Algorithm 3 line 8: widen only while the window's lower edge
		// stays after the current time.
		if tq-(i+1)*e.cfg.TimeRelaxation <= tc {
			return nil
		}
	}
}

// merge appends two ranked lists to dst as one.
func merge(dst, a, b []scored) []scored {
	for len(a) > 0 && len(b) > 0 {
		if rankOrder(a[0].score, a[0].conf, a[0].ref, b[0].score, b[0].conf, b[0].ref) < 0 {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// window returns the live patterns whose consequence offset lies within
// radius of off, scanned once per (premise, off, radius).
func (o *oracle) window(visited []pattern.RegionID, premise string, off, radius int) bqpWindow {
	key := scanKey{premise, off, radius}
	if w, ok := o.windows[key]; ok {
		return w
	}
	e := o.e
	qrk := e.enc.RegionTable().PremiseKey(visited)
	ck := consequenceWindowKey(e.enc.ConsequenceTable(), off, radius, e.cfg.Period)
	var w bqpWindow
	for at, js := range o.byOff {
		dist := circularDist(off, at, e.cfg.Period)
		if dist > radius || len(js) == 0 {
			continue
		}
		sc := 1 - float64(dist)/float64(radius+1) // Equation 3
		// One offset's hits with no premise term score sc·conf for one
		// positive sc, so its confidence order is their rank order.
		var run []scored
		for _, j := range js {
			if !o.keys[j].CK.Intersects(ck) {
				continue
			}
			if sr := PremiseSimilarity(o.keys[j].RK, qrk, e.cfg.Weight); sr != 0 {
				w.shared = append(w.shared, hit{i: j, sc: sc, sr: sr})
			} else {
				// (0·penalty + sc)·conf and (0 + sc)·conf are sc·conf exactly.
				run = append(run, scored{score: sc * o.confs[j], conf: o.confs[j], ref: o.refs[j]})
			}
		}
		w.rest = merge(nil, w.rest, run)
	}
	o.windows[key] = w
	return w
}

// plainRank sorts full Predictions under the ranking order.
func plainRank(cands []Prediction) []Prediction {
	slices.SortFunc(cands, func(a, b Prediction) int {
		return rankOrder(a.Score, a.Confidence, a.PatternRef, b.Score, b.Confidence, b.PatternRef)
	})
	return cands
}

// plainForward is oracleForward without the memo: every live pattern
// rescanned and a full Prediction built per hit.
func (o *oracle) plainForward(visited []pattern.RegionID, tq int) []Prediction {
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
		cands = append(cands, o.prediction(ref, sr*e.Pattern(ref).Confidence, PathForward))
	}
	return plainRank(cands)
}

// plainBackward is oracleBackward without the memo.
func (o *oracle) plainBackward(visited []pattern.RegionID, tc, tq int) []Prediction {
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
			conf := e.Pattern(ref).Confidence
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
			return plainRank(cands)
		}
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
	for ref := range e.Refs() {
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

// wholePeriod is the query key whose consequence part names every time id:
// a consequence search over it visits every leaf entry.
func wholePeriod(e *Engine) bitkey.PatternKey {
	q := bitkey.NewPatternKey(e.enc.ConsequenceTable().Len(), e.enc.RegionTable().Len())
	for b := 1; b <= q.CK.Len(); b++ {
		q.CK.Set(b)
	}
	return q
}

// checkRanked recomputes every built ranked list from the tree's leaves —
// each offset's refs with their table confidences, confidence descending
// then ref ascending — and compares it, time id included, with the list the
// engine caches. A list a mutation marked stale must hold refs of its own
// offset only, the offset's live refs among them each once; it is then
// re-ranked through rankedAt and compared like the others.
func checkRanked(t *testing.T, e *Engine) {
	t.Helper()
	want := make([][]rankEntry, e.cfg.Period)
	e.tree.SearchConsequence(wholePeriod(e), func(ref, _ int, _ bitkey.Key) bool {
		off := consOffset(e, ref)
		want[off] = append(want[off], rankEntry{conf: e.rules.Confidence(ref), ref: int32(ref)})
		return true
	})
	for off := range e.ranked {
		l := e.ranked[off].Load()
		if l == nil {
			continue
		}
		w := want[off]
		if l.stale {
			var live, members []int32
			for _, ref := range l.entries {
				if got := consOffset(e, int(ref)); got != off {
					t.Fatalf("offset %d's stale list holds ref %d of offset %d", off, ref, got)
				}
				if e.IsLive(int(ref)) {
					live = append(live, ref)
				}
			}
			for _, r := range w {
				members = append(members, r.ref)
			}
			slices.Sort(live)
			slices.Sort(members)
			if !slices.Equal(live, members) {
				t.Fatalf("offset %d's stale list holds live refs %v\nthe tree %v", off, live, members)
			}
			if l = e.rankedAt(off); l.stale {
				t.Fatalf("offset %d still stale after rankedAt", off)
			}
		}
		sort.Slice(w, func(i, j int) bool {
			if w[i].conf != w[j].conf {
				return w[i].conf > w[j].conf
			}
			return w[i].ref < w[j].ref
		})
		refs := make([]int32, len(w))
		for i, r := range w {
			refs[i] = r.ref
		}
		if !slices.Equal(l.entries, refs) {
			t.Fatalf("offset %d ranked %v\nfrom the tree %v", off, l.entries, w)
		}
		if tid, ok := e.enc.ConsequenceTable().TimeID(off); !ok || tid != l.tid {
			t.Fatalf("offset %d ranked under time id %d, table says %d (%v)", off, l.tid, tid, ok)
		}
	}
}

// TestSortRankedMatchesSort holds the build's hand-written sort to the
// library's over lists of every size around its insertion-sort cut-off and
// well past it, with many equal confidences.
func TestSortRankedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		if trial%10 == 0 {
			n = rng.Intn(600)
		}
		got := make([]rankEntry, n)
		for i, ref := range rng.Perm(n) {
			got[i] = rankEntry{conf: float64(1+rng.Intn(1+n/4)) / 8, ref: int32(ref)}
		}
		want := slices.Clone(got)
		sort.Slice(want, func(i, j int) bool {
			if want[i].conf != want[j].conf {
				return want[i].conf > want[j].conf
			}
			return want[i].ref < want[j].ref
		})
		if sortRanked(got); !slices.Equal(got, want) {
			t.Fatalf("n=%d: sortRanked %v\nwant %v", n, got, want)
		}
	}
}

// TestKthBestMatchesSort holds BQP's threshold to a sort of every score
// offered: for each k the buffer holds, below(τ) is true exactly when k
// scores are in and τ is under the k-th best; for any other k it is never
// true.
func TestKthBestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		k := rng.Intn(len(kthBest{}.top) + 3)
		var b kthBest
		if 0 < k && k <= len(b.top) {
			b.k = k
		}
		var seen []float64
		for i := rng.Intn(30); i > 0; i-- {
			s := float64(rng.Intn(12)) / 8
			b.offer(s)
			seen = append(seen, s)
			slices.Sort(seen)
			for _, tau := range []float64{0, 0.5, 0.75, 1, 1.5} {
				want := b.k > 0 && len(seen) >= k && tau < seen[len(seen)-k]
				if got := b.below(tau); got != want {
					t.Fatalf("k=%d scores %v: below(%g) = %v, want %v", k, seen, tau, got, want)
				}
			}
		}
	}
}

// buildRanked builds the ranked list of every offset that has a live
// pattern, so the mutations that follow must mark the ones they make stale.
func buildRanked(e *Engine) {
	for off, n := range e.liveAt {
		if n > 0 {
			e.rankedAt(off)
		}
	}
}

// checkAgainstOracle compares both pattern paths with the oracle for every
// tq in (tc, tc+span] and k in ks, from one recent window. FQP reads only
// tq's offset, so one period of query times covers it. Every eleventh tq the
// oracle's whole ranked lists are held to the plain scans.
func checkAgainstOracle(t *testing.T, e *Engine, o *oracle, visited []pattern.RegionID, tc, span int, ks []int) {
	t.Helper()
	maxK := slices.Max(ks)
	for tq := tc + 1; tq <= tc+span; tq++ {
		bqp := o.oracleBackward(visited, tc, tq)
		var fqp []scored
		if tq <= tc+e.cfg.Period {
			fqp = o.oracleForward(visited, tq)
		}
		if (tq-tc)%11 == 1 {
			if got, want := o.top(bqp, len(bqp), PathBackward), o.plainBackward(visited, tc, tq); !samePredictions(got, want) {
				t.Fatalf("oracle BQP tc=%d tq=%d visited=%v: the memoised scan ranks\n%+v\nthe plain scan\n%+v", tc, tq, visited, got, want)
			}
			if tq > tc+e.cfg.Period {
				// FQP is not asked past one period.
			} else if got, want := o.top(fqp, len(fqp), PathForward), o.plainForward(visited, tq); !samePredictions(got, want) {
				t.Fatalf("oracle FQP tq=%d visited=%v: the memoised scan ranks\n%+v\nthe plain scan\n%+v", tq, visited, got, want)
			}
		}
		bqpTop, fqpTop := o.top(bqp, maxK, PathBackward), o.top(fqp, maxK, PathForward)
		for _, k := range ks {
			if got, want := e.BackwardQuery(visited, tc, tq, k), prefix(bqpTop, k); !samePredictions(got, want) {
				t.Fatalf("BQP tc=%d tq=%d k=%d visited=%v:\n got %+v\nwant %+v", tc, tq, k, visited, got, want)
			}
			if tq > tc+e.cfg.Period {
				continue
			}
			if got, want := e.ForwardQuery(visited, tq, k), prefix(fqpTop, k); !samePredictions(got, want) {
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
			e, err := NewEngine(rt, pattern.TableOf(initial), Config{Period: period, PenalizePremise: true}, tpt.Options{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkLiveCounts(t, e)
			t.Logf("%d patterns indexed, %d held back, %d consequence offsets", len(initial), len(held), e.enc.ConsequenceTable().Len())
			tcs, visited := recentWindows(t, e, tr, period)
			span := 3 * period
			if testing.Short() {
				span = period + 20
			}
			for w := range tcs {
				checkAgainstOracle(t, e, newOracle(e), visited[w], tcs[w], span, ks)
			}

			// Seeded mutation sequence; every step re-derives the counts and
			// the ranked lists still cached from the queries, every few steps
			// re-runs a window against a fresh oracle.
			liveRefs := func() []int {
				var refs []int
				for ref := range e.Refs() {
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
					before := e.Refs()
					if insertAll(e, held[:n]...); e.Refs() != before+n {
						t.Fatalf("an Apply of %d rows left %d refs, want %d", n, e.Refs(), before+n)
					}
					held = held[n:]
				case op == 2:
					// Retire every live pattern of one consequence offset.
					off := consOffset(e, refs[rng.Intn(len(refs))])
					var at []int
					for _, ref := range refs {
						if consOffset(e, ref) == off {
							at = append(at, ref)
						}
					}
					retire(e, at...)
				case op == 3:
					ref := refs[rng.Intn(len(refs))]
					if retire(e, ref); e.IsLive(ref) {
						t.Fatalf("ref %d is live after its Apply retired it", ref)
					}
				default:
					ref := refs[rng.Intn(len(refs))]
					p := e.Pattern(ref)
					p.Confidence = 0.3 + 0.7*rng.Float64()
					if updateAll(e, []ruleUpdate{{ref, p.Confidence, p.Support}}) != 1 {
						t.Fatalf("Apply skipped the rewrite of %d", ref)
					}
				}
				checkLiveCounts(t, e)
				// Before checkRanked re-ranks them, so the queries read the
				// lists this step left stale, or mis-ordered had it failed to
				// mark one; a later step could mark it and hide that. The
				// windows take turns, and a k past the live rule count
				// compares the whole ranked order, not only its head. Minted
				// key widths change what EncodeRecent yields.
				tc := tcs[step%len(tcs)]
				recent, err := tr.Recent(tc, 10)
				if err != nil {
					t.Fatal(err)
				}
				checkAgainstOracle(t, e, newOracle(e), e.EncodeRecent(recent), tc, period+30, append(ks[:len(ks):len(ks)], len(liveRefs())))
				checkRanked(t, e)
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
	e, err := NewEngine(rt, pattern.TableOf(patterns), cfg, tpt.Options{}, nil)
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
	checkRanked(t, e)
}

// rankedRefs lists the refs of one offset's ranked list in order.
func rankedRefs(e *Engine, off int) []int {
	var refs []int
	for _, ref := range e.rankedAt(off).entries {
		refs = append(refs, int(ref))
	}
	return refs
}

// answerRefs lists the pattern refs of a query's answers in rank order.
func answerRefs(preds []Prediction) []int {
	var refs []int
	for _, p := range preds {
		refs = append(refs, p.PatternRef)
	}
	return refs
}

// distinct counts the different values of refs.
func distinct(refs []int) int {
	seen := map[int]bool{}
	for _, r := range refs {
		seen[r] = true
	}
	return len(seen)
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
		insertAll(e, asPatterns([][3]float64{{0, 1, 0.7}, {0, 3, 0.8}})...)
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
		insertAll(e, asPatterns(fan(65, 65))...)
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

	// The rows below are about the ranked lists: a hit whose premise shares
	// no region with the query comes from its offset's list, not the tree.

	t.Run("ranked: equal confidences on different refs", func(t *testing.T) {
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 7}, [][3]float64{{0, 1, 0.5}, {0, 1, 0.5}, {0, 1, 0.7}, {0, 1, 0.5}})
		// No premise: every hit is a list entry, equal scores fall to ref.
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 0, 8, 4))); got != "[2 0 1 3]" {
			t.Errorf("BQP rank order %s, want [2 0 1 3]", got)
		}
		sweep(t, e)
	})

	// sharedHead has, at offset 7, two rules from region 0 above two from
	// region 1: with V = {0} the list's head is all scored by the tree.
	sharedHead := func(t *testing.T) *Engine {
		return handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2},
			[]int{0, 1, 7}, [][3]float64{{0, 2, 0.9}, {0, 2, 0.8}, {1, 2, 0.5}, {1, 2, 0.4}})
	}
	v0 := []pattern.RegionID{0}

	t.Run("ranked: an offset's top entries all share a region with V", func(t *testing.T) {
		e := sharedHead(t)
		if got := fmt.Sprint(rankedRefs(e, 7)); got != "[0 1 2 3]" {
			t.Fatalf("offset 7 ranked %s, want [0 1 2 3]", got)
		}
		// tq at offset 7: refs 0 and 1 score (1 + 1)·conf, the list supplies 2.
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(v0, 0, 37, 3))); got != "[0 1 2]" {
			t.Errorf("BQP %s, want [0 1 2]", got)
		}
		sweep(t, e)
	})

	t.Run("ranked: k beyond an offset's non-sharing entries", func(t *testing.T) {
		e := sharedHead(t)
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(v0, 0, 37, 10))); got != "[0 1 2 3]" {
			t.Errorf("BQP k=10: %s, want all four refs once", got)
		}
		sweep(t, e)
	})

	t.Run("ranked: V empty searches no tree node", func(t *testing.T) {
		e := sharedHead(t)
		before := e.Stats().NodesVisited
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 0, 37, 2))); got != "[0 1]" {
			t.Errorf("BQP %s, want [0 1]", got)
		}
		if n := e.Stats().NodesVisited - before; n != 0 {
			t.Errorf("BQP with no premise touched %d tree nodes, want 0", n)
		}
		sweep(t, e)
	})

	t.Run("ranked: window across the period boundary", func(t *testing.T) {
		// tq at offset 0 with radius 3 spans offsets 17…19 and 0…3.
		e := handEngine(t, Config{Period: 20, DistantThreshold: 3, TimeRelaxation: 3},
			[]int{0, 1, 18, 19}, [][3]float64{{0, 1, 0.5}, {1, 1, 0.6}, {0, 2, 0.7}, {1, 2, 0.4},
				{0, 3, 0.3}, {1, 3, 0.9}, {1, 0, 0.8}})
		got := e.BackwardQuery(v0, 30, 40, 10)
		if refs := answerRefs(got); len(refs) != 7 || distinct(refs) != 7 {
			t.Errorf("wrapped BQP answered refs %v, want all seven once", refs)
		}
		sweep(t, e)
	})

	t.Run("ranked: window covering the whole period", func(t *testing.T) {
		// 2·radius+1 ≥ Period: each offset's list is read once, not once
		// per lap of the window.
		var rules [][3]float64
		for c := 0; c < 5; c++ {
			for p := 0; p < 2; p++ {
				rules = append(rules, [3]float64{float64(p), float64(c), 0.2 + 0.1*float64(c+p)})
			}
		}
		e := handEngine(t, Config{Period: 5, DistantThreshold: 2, TimeRelaxation: 2}, []int{0, 1, 2, 3, 4}, rules)
		for tq := 1; tq <= 10; tq++ {
			refs := answerRefs(e.BackwardQuery([]pattern.RegionID{1}, 0, tq, 20))
			if len(refs) != len(rules) || distinct(refs) != len(rules) {
				t.Errorf("tq %d answered refs %v, want all %d once", tq, refs, len(rules))
			}
		}
		sweep(t, e)
	})

	t.Run("ranked: mutations after the lists were built", func(t *testing.T) {
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2}, []int{0, 1, 7},
			[][3]float64{{1, 2, 0.9}, {1, 2, 0.8}, {1, 2, 0.7}, {1, 2, 0.6}, {0, 2, 0.5}})
		buildRanked(e)
		step := func(what, want string) {
			t.Helper()
			checkLiveCounts(t, e)
			checkRanked(t, e)
			if got := fmt.Sprint(rankedRefs(e, 7)); got != want {
				t.Fatalf("after %s offset 7 ranks %s, want %s", what, got, want)
			}
			sweep(t, e)
		}
		updateAll(e, []ruleUpdate{{3, 0.95, 1}})
		step("raising ref 3 past three neighbours", "[3 0 1 2 4]")
		updateAll(e, []ruleUpdate{{0, 0.55, 1}})
		step("lowering ref 0 past two", "[3 1 2 0 4]")
		retire(e, 3)
		step("removing the head", "[1 2 0 4]")
		insertAll(e, asPatterns([][3]float64{{1, 2, 0.75}})...)
		step("inserting ref 5", "[1 5 2 0 4]")
		insertAll(e, asPatterns([][3]float64{{0, 2, 0.8}})...)
		step("inserting ref 6 level with ref 1", "[1 6 5 2 0 4]")
	})

	t.Run("ranked: a mutation drops only the lists it touches", func(t *testing.T) {
		// Regions 1…5 at offsets 3…15, two rules into each from regions 0
		// and 1: refs 2c−2 and 2c−1 lead into region c.
		var rules [][3]float64
		for c := 1; c <= 5; c++ {
			rules = append(rules, [3]float64{0, float64(c), 0.3 + 0.1*float64(c)}, [3]float64{1, float64(c), 0.35 + 0.1*float64(c)})
		}
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 2}, []int{0, 3, 6, 9, 12, 15}, rules)
		buildRanked(e)
		built := make([]*rankedList, len(e.ranked))
		for off := range e.ranked {
			built[off] = e.ranked[off].Load()
		}
		if built[12] == nil || built[15] == nil {
			t.Fatal("buildRanked left offsets 12 and 15 unbuilt")
		}
		ups := []ruleUpdate{
			{4, 0.95, 1},                    // offset 9, re-weighted
			{6, e.Pattern(6).Confidence, 3}, // offset 12, support only
		}
		if n := e.Apply([]int32{2}, len(ups), func(i int) (int, float64, int) { // retires offset 6
			return ups[i].Ref, ups[i].Conf, ups[i].Support
		}, pattern.TableOf(asPatterns([][3]float64{{1, 1, 0.55}}))); n != 2 { // inserts at offset 3
			t.Fatalf("Apply applied %d of 2 rewrites", n)
		}
		for off := range e.ranked {
			got, want := e.ranked[off].Load(), built[off]
			if got != want {
				t.Errorf("offset %d holds list %p, want %p", off, got, want)
			}
			if stale := off == 3 || off == 6 || off == 9; got != nil && got.stale != stale {
				t.Errorf("offset %d stale = %v, want %v", off, got.stale, stale)
			}
		}
		checkLiveCounts(t, e)
		checkRanked(t, e)
		sweep(t, e)
		if got := fmt.Sprint(rankedRefs(e, 3)); got != "[10 1 0]" {
			t.Errorf("offset 3 re-ranked as %s, want [10 1 0]", got)
		}
	})

	// The rows below are about the stop rule: the ranked lists are read
	// nearest offset first, and not once τ is below the k-th best score
	// held. An unbuilt list is one BQP never read.
	unread := func(t *testing.T, e *Engine, offs ...int) {
		t.Helper()
		for _, off := range offs {
			if e.ranked[off].Load() != nil {
				t.Errorf("offset %d's list was read", off)
			}
		}
	}

	t.Run("stop: a k-th best score equal to τ still reads the offset", func(t *testing.T) {
		// With V = {0} and tq at offset 7, radius 3: ref 0 scores
		// (1 + 1)·0.375 = 0.75, and offset 8's τ is 1 − 1/4 = 0.75. Ref 1
		// there scores 0.75·1, level with it, and wins on confidence.
		e := handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 3},
			[]int{0, 7, 8}, [][3]float64{{0, 1, 0.375}, {1, 2, 1}})
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(v0, 0, 37, 1))); got != "[1]" {
			t.Errorf("BQP k=1: %s, want [1]", got)
		}
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(v0, 0, 37, 2))); got != "[1 0]" {
			t.Errorf("BQP k=2: %s, want [1 0]", got)
		}
		sweep(t, e)
	})

	// ladder has three rules from region 0 into each of offsets 10 to 13,
	// at confidences 0.9, 0.8 and 0.7.
	ladder := func(t *testing.T) *Engine {
		var rules [][3]float64
		for c := 1; c <= 4; c++ {
			rules = append(rules, [3]float64{0, float64(c), 0.9}, [3]float64{0, float64(c), 0.8}, [3]float64{0, float64(c), 0.7})
		}
		return handEngine(t, Config{Period: 30, DistantThreshold: 3, TimeRelaxation: 3}, []int{0, 10, 11, 12, 13}, rules)
	}

	t.Run("stop: V empty", func(t *testing.T) {
		// tq at offset 10, radius 3. For k = 1, offset 10 holds 0.9 and
		// offset 11's τ is 0.75; for k = 3 offset 11 is read, and offset
		// 12's τ of 0.5 is below the third best, 0.7.
		e := ladder(t)
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 0, 40, 1))); got != "[0]" {
			t.Errorf("BQP k=1: %s, want [0]", got)
		}
		unread(t, e, 11, 12, 13)
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 0, 40, 3))); got != "[0 1 2]" {
			t.Errorf("BQP k=3: %s, want [0 1 2]", got)
		}
		unread(t, e, 12, 13)
		checkAgainstOracle(t, e, newOracle(e), nil, 0, 60, []int{1, 3, 4, 7})
		sweep(t, e)
	})

	t.Run("stop: k larger than the threshold buffer", func(t *testing.T) {
		// A k the buffer cannot hold keeps no threshold: every offset of
		// the window is read, and the answer is still the oracle's.
		e := ladder(t)
		k := len(kthBest{}.top)
		e.BackwardQuery(nil, 0, 40, k)
		unread(t, e, 13)
		if e.BackwardQuery(nil, 0, 40, k+1); e.ranked[13].Load() == nil {
			t.Errorf("k = %d left offset 13 unread", k+1)
		}
		checkAgainstOracle(t, e, newOracle(e), nil, 0, 60, []int{k - 1, k, k + 1, 12, 13})
		checkAgainstOracle(t, e, newOracle(e), v0, 0, 60, []int{k, k + 1})
		sweep(t, e)
	})

	t.Run("stop: window covering the whole period", func(t *testing.T) {
		// 2·radius+1 ≥ Period: distance 3 of period 6 is one offset, and
		// with k past the patterns no threshold forms, so each list is read
		// once.
		for _, period := range []int{5, 6} {
			var rules [][3]float64
			offsets := []int{0}
			for c := 1; c < period; c++ {
				offsets = append(offsets, c)
				rules = append(rules, [3]float64{0, float64(c), 0.25 + 0.125*float64(c%4)})
			}
			e := handEngine(t, Config{Period: period, DistantThreshold: 2, TimeRelaxation: 3}, offsets, rules)
			for tq := 1; tq <= period; tq++ {
				refs := answerRefs(e.BackwardQuery(nil, 0, tq, 8))
				if len(refs) != len(rules) || distinct(refs) != len(rules) {
					t.Errorf("period %d tq %d answered refs %v, want all %d once", period, tq, refs, len(rules))
				}
			}
			checkAgainstOracle(t, e, newOracle(e), nil, 0, 2*period, []int{1, 2, 3, 8, 9})
			sweep(t, e)
		}
	})

	t.Run("stop: window across the period boundary", func(t *testing.T) {
		// tq at offset 1 of period 20, radius 3: offset 0 is one step back
		// across the boundary, offset 18 three. k = 1 stops at distance 2,
		// whose τ of 0.5 is below 0.75·0.9; k = 2 reads offset 18.
		e := handEngine(t, Config{Period: 20, DistantThreshold: 3, TimeRelaxation: 3},
			[]int{0, 5, 18}, [][3]float64{{1, 0, 0.9}, {1, 2, 0.95}})
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 30, 41, 1))); got != "[0]" {
			t.Errorf("BQP k=1: %s, want [0]", got)
		}
		unread(t, e, 18)
		if got := fmt.Sprint(answerRefs(e.BackwardQuery(nil, 30, 41, 2))); got != "[0 1]" {
			t.Errorf("BQP k=2: %s, want [0 1]", got)
		}
		sweep(t, e)
	})
}

// FuzzBackwardQuery builds an engine out of the input — period, tε, a fan of
// single-premise rules from region 0 or 1 over the offsets the bytes name,
// the first half indexed at build time, every ranked list built and some of
// them re-weighted, the rest inserted, so the consequence table grows in
// input order, then some removed — and holds BQP and FQP to the oracle from
// a spread of current times, straight after the mutations, so queries meet
// the lists stale, then the ranked lists to the tree. The seeds run under
// plain go test.
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
		period, te, mutations := 2+int(in[0])%149, 1+int(in[1])%5, int(in[2])%8
		// One region per offset named; an offset named again gets another
		// rule, so a list holds several entries, equal confidences included.
		offsets, region := []int{0}, map[int]int{0: 0}
		var rules [][3]float64
		for in = in[3:]; len(in) >= 2 && len(rules) < 80; in = in[2:] {
			off := int(in[0]) % period
			if _, ok := region[off]; !ok {
				region[off] = len(offsets)
				offsets = append(offsets, off)
			}
			premise := min(int(in[1]&1), len(offsets)-1)
			rules = append(rules, [3]float64{float64(premise), float64(region[off]), 0.05 + float64(in[1])/300})
		}
		e := handEngine(t, Config{Period: period, DistantThreshold: 3, TimeRelaxation: te, PenalizePremise: period%2 == 0},
			offsets, rules[:len(rules)/2])
		buildRanked(e)
		var ups []ruleUpdate
		for ref := 0; ref < mutations && ref < len(rules)/2; ref++ {
			ups = append(ups, ruleUpdate{ref, 1.05 - e.Pattern(ref).Confidence, 1})
		}
		updateAll(e, ups)
		var late []pattern.Pattern
		for _, r := range rules[len(rules)/2:] {
			late = append(late, pattern.Pattern{Premise: []pattern.RegionID{pattern.RegionID(r[0])},
				Consequence: pattern.RegionID(r[1]), Confidence: r[2]})
		}
		refs := insertAll(e, late...)
		retire(e, refs[:min(mutations, len(refs))]...)
		checkLiveCounts(t, e)
		sweepEvery(t, e, 1+period/3)
	})
}
