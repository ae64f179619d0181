package hpa

import (
	"math"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/motion"
	"hpm/internal/pattern"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// janeFixture reconstructs the paper's running example: five frequent
// regions (Home, City, Shop, Work, Beach at offsets 0,1,1,2,2) and the four
// Table III patterns with their exact paper confidences. Patterns are built
// by hand so the worked FQP numbers of §VI-B can be checked to the digit.
func janeFixture(t *testing.T) (*pattern.Encoder, []pattern.Pattern, map[string]geom.Point) {
	t.Helper()
	const n = 20
	jitter := func(c geom.Point, i int) geom.Point {
		return geom.Pt(c.X+float64(i%5), c.Y+float64((i*3)%7))
	}
	centers := map[string]geom.Point{
		"home":  geom.Pt(100, 100),
		"city":  geom.Pt(2000, 2000),
		"shop":  geom.Pt(3000, 1000),
		"work":  geom.Pt(4000, 4000),
		"beach": geom.Pt(5000, 1000),
	}
	g0 := trajectory.Group{Offset: 0, Points: make([]geom.Point, n)}
	g1 := trajectory.Group{Offset: 1, Points: make([]geom.Point, n)}
	g2 := trajectory.Group{Offset: 2, Points: make([]geom.Point, n)}
	for i := 0; i < n; i++ {
		g0.Points[i] = jitter(centers["home"], i)
		if i < 10 {
			g1.Points[i] = jitter(centers["city"], i)
		} else {
			g1.Points[i] = jitter(centers["shop"], i)
		}
		switch {
		case i < 5:
			g2.Points[i] = jitter(centers["work"], i)
		case i < 10:
			g2.Points[i] = geom.Pt(float64(1000*i), 9000)
		case i < 18:
			g2.Points[i] = jitter(centers["beach"], i)
		default:
			g2.Points[i] = geom.Pt(float64(1000*i), 200)
		}
	}
	rt := pattern.DiscoverRegions([]trajectory.Group{g0, g1, g2}, 30, 4)
	if rt.Len() != 5 {
		t.Fatalf("fixture discovered %d regions, want 5", rt.Len())
	}
	// The paper's four patterns (Fig. 3 / Table III) with their exact
	// confidences; region ids: 0=Home 1=City 2=Shop 3=Work 4=Beach.
	patterns := []pattern.Pattern{
		{Premise: []pattern.RegionID{0}, Consequence: 1, Confidence: 0.9},    // P0
		{Premise: []pattern.RegionID{0}, Consequence: 2, Confidence: 0.8},    // P1
		{Premise: []pattern.RegionID{0, 1}, Consequence: 3, Confidence: 0.5}, // P2
		{Premise: []pattern.RegionID{0, 2}, Consequence: 4, Confidence: 0.4}, // P3
	}
	ct := pattern.NewConsequenceTable(rt, patterns)
	return pattern.NewEncoder(rt, ct), patterns, centers
}

func janeEngine(t *testing.T, cfg Config) (*Engine, map[string]geom.Point) {
	t.Helper()
	enc, patterns, centers := janeFixture(t)
	if cfg.Period == 0 {
		cfg.Period = 3
	}
	eng, err := NewEngine(enc, patterns, cfg, tpt.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, centers
}

// §VI-B worked example: recent movements R0^0, R1^0 with tq = 2 must score
// P2 at Sp = 1 x 0.5 = 0.5 and P3 at Sp = (1/3) x 0.4 ≈ 0.133, with P2's
// consequence (Work) ranked first.
func TestForwardQueryPaperExample(t *testing.T) {
	eng, centers := janeEngine(t, Config{DistantThreshold: 60, Weight: WeightLinear})
	preds := eng.ForwardQuery([]pattern.RegionID{0, 1}, 2, 2)
	if len(preds) != 2 {
		t.Fatalf("got %d candidates, want 2", len(preds))
	}
	if math.Abs(preds[0].Score-0.5) > 1e-12 {
		t.Errorf("top score = %v, want 0.5", preds[0].Score)
	}
	if math.Abs(preds[1].Score-0.4/3) > 1e-12 {
		t.Errorf("second score = %v, want %v", preds[1].Score, 0.4/3)
	}
	if preds[0].PatternRef != 2 || preds[1].PatternRef != 3 {
		t.Errorf("ranked refs = %d,%d want 2,3", preds[0].PatternRef, preds[1].PatternRef)
	}
	// k=1 returns only Work's center.
	top := eng.ForwardQuery([]pattern.RegionID{0, 1}, 2, 1)
	if len(top) != 1 {
		t.Fatalf("k=1 returned %d", len(top))
	}
	if top[0].Location.Dist(centers["work"]) > 10 {
		t.Errorf("top location %v not near Work %v", top[0].Location, centers["work"])
	}
}

func TestForwardQueryNoConsequenceOffset(t *testing.T) {
	eng, _ := janeEngine(t, Config{})
	// Offset 0 is never a consequence: no candidates.
	if preds := eng.ForwardQuery([]pattern.RegionID{0}, 3, 1); len(preds) != 0 {
		t.Errorf("query at non-consequence offset returned %v", preds)
	}
	// Empty premise: no candidates.
	if preds := eng.ForwardQuery(nil, 2, 1); len(preds) != 0 {
		t.Errorf("empty premise returned %v", preds)
	}
}

func TestForwardQueryPremiseMustIntersect(t *testing.T) {
	eng, _ := janeEngine(t, Config{})
	// Premise {Work}: no pattern has Work in its premise.
	if preds := eng.ForwardQuery([]pattern.RegionID{3}, 2, 1); len(preds) != 0 {
		t.Errorf("non-intersecting premise returned %v", preds)
	}
}

func TestBackwardQueryRanksByTimeDistance(t *testing.T) {
	// Period 100 with consequences at offsets 1 and 2; a distant query at
	// offset 4 must prefer the consequence at 2 (closer in time) when
	// premise similarity ties at zero.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 3, TimeRelaxation: 1, PenalizePremise: true})
	preds := eng.BackwardQuery(nil, 0, 4, 4)
	if len(preds) == 0 {
		t.Fatal("BQP found no candidates")
	}
	// Candidates at offset 2 (P2, P3) must outrank those at offset 1.
	offs := map[int]int{0: 1, 1: 1, 2: 2, 3: 2} // ref -> consequence offset
	bestOff := offs[preds[0].PatternRef]
	if bestOff != 2 {
		t.Errorf("top BQP candidate at offset %d, want 2 (closest to query)", bestOff)
	}
	for i := 1; i < len(preds); i++ {
		if preds[i].Score > preds[i-1].Score {
			t.Errorf("BQP results not sorted by score at %d", i)
		}
	}
}

func TestBackwardQueryWindowExpansion(t *testing.T) {
	// Query at offset 40, consequences at 1 and 2, tε=2: the base window
	// [38,42] is empty, so BQP must keep widening until it reaches them.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 3, TimeRelaxation: 2, PenalizePremise: true})
	preds := eng.BackwardQuery(nil, 0, 40, 1)
	if len(preds) != 1 {
		t.Fatalf("expanded BQP returned %d predictions", len(preds))
	}
	if preds[0].Source != SourcePattern {
		t.Errorf("source = %v, want pattern", preds[0].Source)
	}
}

func TestBackwardQueryStopsAtCurrentTime(t *testing.T) {
	// Current time 35, query 40, consequences at 1,2 (far behind tc):
	// expansion must stop once tq - i*tε <= tc and report no candidates.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 3, TimeRelaxation: 2, PenalizePremise: true})
	if preds := eng.BackwardQuery(nil, 35, 40, 1); len(preds) != 0 {
		t.Errorf("BQP crossed the current time: %v", preds)
	}
}

func TestBackwardQueryPremisePenalty(t *testing.T) {
	// With the premise known, Equation 5 down-weights Sr as tq-tc grows.
	engPen, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 5, TimeRelaxation: 1, PenalizePremise: true})
	engRaw, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 5, TimeRelaxation: 1, PenalizePremise: false})
	visited := []pattern.RegionID{0, 1}
	// Query close enough that the base window catches offset 2.
	pen := engPen.BackwardQuery(visited, -10, 2, 4)
	raw := engRaw.BackwardQuery(visited, -10, 2, 4)
	if len(pen) == 0 || len(raw) == 0 {
		t.Fatal("no BQP candidates")
	}
	// Equation 4 score >= Equation 5 score for the same top pattern
	// because the penalty shrinks the premise term.
	if pen[0].Score >= raw[0].Score {
		t.Errorf("penalized score %v not below raw %v", pen[0].Score, raw[0].Score)
	}
}

func TestPredictDispatchNearVsDistant(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	// Recent movements pass through Home (offset 0) then City (offset 1);
	// current time 1, query time 2: near query -> FQP -> Work.
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	preds, err := eng.Predict(Query{Recent: recent, Tq: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].Source != SourcePattern {
		t.Fatalf("near query: %+v", preds)
	}
	if preds[0].Location.Dist(centers["work"]) > 10 {
		t.Errorf("near prediction %v not near Work", preds[0].Location)
	}
}

func TestPredictMotionFallback(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	// Recent movements match no frequent region: FQP is empty and the
	// linear motion function must answer.
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	preds, err := eng.Predict(Query{Recent: recent, Tq: 2, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].Source != SourceMotion || preds[0].PatternRef != -1 {
		t.Fatalf("fallback: %+v", preds)
	}
	want := geom.Pt(9020, 9000)
	if preds[0].Location.Dist(want) > 1e-6 {
		t.Errorf("motion fallback predicted %v, want %v", preds[0].Location, want)
	}
}

func TestPredictWithFallbackDisabled(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100})
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	preds, err := eng.Predict(Query{Recent: recent, Tq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 0 {
		t.Errorf("disabled fallback returned %v", preds)
	}
}

func TestPredictDegenerateRecentFallsBackToLastLocation(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	recent := []trajectory.TimedPoint{{T: 1, Loc: geom.Pt(9000, 9000)}}
	preds, err := eng.Predict(Query{Recent: recent, Tq: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 1 || preds[0].Location != geom.Pt(9000, 9000) {
		t.Fatalf("degenerate recent: %+v", preds)
	}
}

func TestPredictValidation(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3})
	if _, err := eng.Predict(Query{Recent: nil, Tq: 5}); err == nil {
		t.Error("empty recent accepted")
	}
	recent := []trajectory.TimedPoint{{T: 3, Loc: centers["home"]}}
	if _, err := eng.Predict(Query{Recent: recent, Tq: 3}); err == nil {
		t.Error("tq == tc accepted")
	}
	if _, err := eng.Predict(Query{Recent: recent, Tq: 1}); err == nil {
		t.Error("tq < tc accepted")
	}
}

func TestEncodeRecent(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3})
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
		{T: 3, Loc: centers["home"]},     // second period, same region: deduped
		{T: 4, Loc: geom.Pt(9500, 9500)}, // matches nothing
	}
	ids := eng.EncodeRecent(recent)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("EncodeRecent = %v, want [0 1]", ids)
	}
}

func TestIsDistant(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 60})
	if eng.IsDistant(100, 159) {
		t.Error("159-100 < 60 flagged distant")
	}
	if !eng.IsDistant(100, 160) {
		t.Error("160-100 >= 60 not flagged distant")
	}
}

func TestNewEngineValidation(t *testing.T) {
	enc, patterns, _ := janeFixture(t)
	if _, err := NewEngine(enc, patterns, Config{}, tpt.Options{}, nil); err == nil {
		t.Error("zero period accepted")
	}
}

func TestEngineDefaults(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3})
	cfg := eng.Config()
	if cfg.DistantThreshold != DefaultDistantThreshold {
		t.Errorf("DistantThreshold = %d", cfg.DistantThreshold)
	}
	if cfg.TimeRelaxation != DefaultTimeRelaxation {
		t.Errorf("TimeRelaxation = %d", cfg.TimeRelaxation)
	}
	if eng.Tree().Len() != len(eng.Patterns()) {
		t.Errorf("tree holds %d items for %d patterns", eng.Tree().Len(), len(eng.Patterns()))
	}
}

func TestCircularDist(t *testing.T) {
	tests := []struct{ a, b, n, want int }{
		{0, 0, 10, 0},
		{1, 9, 10, 2},
		{9, 1, 10, 2},
		{2, 7, 10, 5},
		{0, 5, 10, 5},
	}
	for _, tt := range tests {
		if got := circularDist(tt.a, tt.b, tt.n); got != tt.want {
			t.Errorf("circularDist(%d,%d,%d) = %d, want %d", tt.a, tt.b, tt.n, got, tt.want)
		}
	}
}

func TestMod(t *testing.T) {
	if mod(-1, 3) != 2 || mod(7, 3) != 1 || mod(0, 3) != 0 {
		t.Error("mod broken")
	}
}

func TestSourceString(t *testing.T) {
	if SourcePattern.String() != "pattern" || SourceMotion.String() != "motion" {
		t.Error("Source.String broken")
	}
}

func TestConsequenceWindowKeyWrapAround(t *testing.T) {
	// Period 100 with consequence offsets 1 and 2: windows that cross the
	// period boundary in either direction must still set their bits.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 3, TimeRelaxation: 1, PenalizePremise: true})
	ct := eng.enc.ConsequenceTable()

	// Window [98, 102] wraps past the top: offsets 1 and 2 are inside.
	k := consequenceWindowKey(ct, 0, 2, 100)
	if k.Size() != 2 {
		t.Errorf("wrap-high window key = %s, want both bits", k)
	}
	// Window [-1, 3] wraps below zero: offsets 1 and 2 inside.
	k = consequenceWindowKey(ct, 1, 2, 100)
	if k.Size() != 2 {
		t.Errorf("wrap-low window key = %s, want both bits", k)
	}
	// Window radius covering the whole period short-circuits.
	k = consequenceWindowKey(ct, 50, 60, 100)
	if k.Size() != 2 {
		t.Errorf("full-period window key = %s, want both bits", k)
	}
	// A window nowhere near the consequences is empty.
	k = consequenceWindowKey(ct, 50, 3, 100)
	if !k.IsZero() {
		t.Errorf("far window key = %s, want zero", k)
	}
}

func TestBackwardQueryAcrossPeriodBoundary(t *testing.T) {
	// Distant query whose offset wraps: tq lands at offset 1 of the NEXT
	// period; the consequences at offsets 1,2 must still be found.
	eng, _ := janeEngine(t, Config{Period: 100, DistantThreshold: 3, TimeRelaxation: 2, PenalizePremise: true})
	preds := eng.BackwardQuery(nil, 90, 101, 1)
	if len(preds) != 1 {
		t.Fatalf("wrapped BQP returned %d predictions", len(preds))
	}
	if preds[0].ConsequenceOffset != 1 && preds[0].ConsequenceOffset != 2 {
		t.Errorf("wrapped BQP picked offset %d", preds[0].ConsequenceOffset)
	}
}

func TestQueryStatsCounters(t *testing.T) {
	eng, centers := janeEngine(t, Config{Period: 3, DistantThreshold: 2, Weight: WeightLinear,
		NewMotion: func() motion.Function { return motion.NewLinear(nil) }})
	if s := eng.Stats(); s != (QueryStats{}) {
		t.Fatalf("fresh engine stats %+v", s)
	}
	// Near query answered by FQP.
	recent := []trajectory.TimedPoint{
		{T: 0, Loc: centers["home"]},
		{T: 1, Loc: centers["city"]},
	}
	if _, err := eng.Predict(Query{Recent: recent, Tq: 2}); err != nil {
		t.Fatal(err)
	}
	// Distant query (horizon >= 2) answered by BQP.
	if _, err := eng.Predict(Query{Recent: recent, Tq: 5}); err != nil {
		t.Fatal(err)
	}
	// Query matching nothing: motion fallback.
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	if _, err := eng.Predict(Query{Recent: far, Tq: 2}); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.Queries != 3 || s.Forward != 1 || s.Backward != 1 || s.Fallback != 1 || s.Unanswered != 0 {
		t.Errorf("stats = %+v", s)
	}
	if s.NodesVisited == 0 {
		t.Error("no nodes counted")
	}
	eng.ResetStats()
	if eng.Stats() != (QueryStats{}) {
		t.Error("ResetStats did not zero")
	}
}

func TestQueryStatsUnanswered(t *testing.T) {
	eng, _ := janeEngine(t, Config{Period: 3, DistantThreshold: 100}) // no fallback
	far := []trajectory.TimedPoint{
		{T: 0, Loc: geom.Pt(9000, 9000)},
		{T: 1, Loc: geom.Pt(9010, 9000)},
	}
	if _, err := eng.Predict(Query{Recent: far, Tq: 2}); err != nil {
		t.Fatal(err)
	}
	if s := eng.Stats(); s.Unanswered != 1 || s.Fallback != 0 {
		t.Errorf("stats = %+v", s)
	}
}
