package experiments

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func quickOpts() Options { return Options{Quick: true, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// Every figure of the paper plus the documented ablations must be
	// registered.
	want := []string{
		"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11a", "fig11b",
		"pruning", "weights", "fallback", "bqp-penalty", "trelax", "tpt-chooseleaf",
		"eval", "retrain", "markov",
	}
	names := Names()
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %q not registered", w)
		}
	}
	// Names sorted.
	for i := 1; i < len(names); i++ {
		if names[i] < names[i-1] {
			t.Error("Names() not sorted")
		}
	}
	if _, ok := Get("fig5"); !ok {
		t.Error("Get(fig5) failed")
	}
	if _, ok := Get("nope"); ok {
		t.Error("Get(nope) succeeded")
	}
}

// checkFigure validates structural sanity: non-empty series of equal
// length with finite values.
func checkFigure(t *testing.T, f Figure) {
	t.Helper()
	if f.ID == "" || f.Title == "" {
		t.Errorf("figure missing labels: %+v", f)
	}
	if len(f.Series) == 0 {
		t.Fatalf("%s: no series", f.ID)
	}
	for _, s := range f.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("%s/%s: bad series lengths %d/%d", f.ID, s.Name, len(s.X), len(s.Y))
		}
		for i, y := range s.Y {
			if math.IsNaN(y) || math.IsInf(y, 0) {
				t.Fatalf("%s/%s: non-finite y at %d", f.ID, s.Name, i)
			}
		}
	}
}

func TestFig5QuickShape(t *testing.T) {
	figs := mustRun(t, "fig5")
	for _, f := range figs {
		checkFigure(t, f)
	}
	// On the strongly-patterned Bike data, HPM must beat RMF at the
	// longest horizon by a clear margin.
	bike := figs[0]
	hpm, rmf := bike.Series[0], bike.Series[1]
	last := len(hpm.Y) - 1
	if hpm.Y[last] >= rmf.Y[last] {
		t.Errorf("fig5 Bike: HPM %v not below RMF %v at max horizon", hpm.Y[last], rmf.Y[last])
	}
	// RMF error grows with the horizon.
	if rmf.Y[last] <= rmf.Y[0] {
		t.Errorf("fig5 Bike: RMF error did not grow (%v -> %v)", rmf.Y[0], rmf.Y[last])
	}
}

func TestFig6QuickShape(t *testing.T) {
	figs := mustRun(t, "fig6")
	for _, f := range figs {
		checkFigure(t, f)
	}
	// Bike: error with the most training data must not exceed the error
	// with the least.
	hpm := figs[0].Series[0]
	if hpm.Y[len(hpm.Y)-1] > hpm.Y[0] {
		t.Errorf("fig6 Bike: error rose with more data: %v -> %v", hpm.Y[0], hpm.Y[len(hpm.Y)-1])
	}
}

func TestFig7QuickShape(t *testing.T) {
	figs := mustRun(t, "fig7")
	if len(figs) != 2 {
		t.Fatalf("fig7 returned %d figures, want 2", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// Pattern counts rise with Eps (small merge-induced dips allowed:
	// at very large Eps neighbouring route regions can fuse).
	for _, s := range figs[0].Series {
		if s.Y[len(s.Y)-1] < 0.9*s.Y[0] {
			t.Errorf("fig7a %s: patterns fell with Eps: %v -> %v", s.Name, s.Y[0], s.Y[len(s.Y)-1])
		}
	}
}

func TestFig8QuickShape(t *testing.T) {
	figs := mustRun(t, "fig8")
	for _, f := range figs {
		checkFigure(t, f)
	}
	// Pattern counts fall as MinPts rises.
	for _, s := range figs[0].Series {
		if s.Y[len(s.Y)-1] > s.Y[0] {
			t.Errorf("fig8a %s: patterns rose with MinPts", s.Name)
		}
	}
}

func TestFig9QuickShape(t *testing.T) {
	figs := mustRun(t, "fig9")
	for _, f := range figs {
		checkFigure(t, f)
	}
	// Counts monotonically non-increasing in the confidence threshold.
	for _, s := range figs[0].Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[i-1]+1e-9 {
				t.Errorf("fig9a %s: count rose with confidence at %v", s.Name, s.X[i])
			}
		}
	}
}

func TestFig10Quick(t *testing.T) {
	for _, f := range mustRun(t, "fig10") {
		checkFigure(t, f)
	}
}

func TestFig11aQuickShape(t *testing.T) {
	figs := mustRun(t, "fig11a")
	f := figs[0]
	checkFigure(t, f)
	if len(f.Series) != 3 {
		t.Fatalf("fig11a has %d series, want 3", len(f.Series))
	}
	// Storage grows with pattern count, and with region count at fixed
	// pattern count.
	for _, s := range f.Series {
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] <= s.Y[i-1] {
				t.Errorf("fig11a %s: storage not increasing", s.Name)
			}
		}
	}
	last := len(f.Series[0].Y) - 1
	if !(f.Series[0].Y[last] < f.Series[1].Y[last] && f.Series[1].Y[last] < f.Series[2].Y[last]) {
		t.Error("fig11a: storage not ordered by region count")
	}
}

func TestFig11bQuickShape(t *testing.T) {
	figs := mustRun(t, "fig11b")
	f := figs[0]
	checkFigure(t, f)
	// At the largest pattern count the scan must cost more than the tree.
	tpt, bf := f.Series[0], f.Series[1]
	last := len(tpt.Y) - 1
	if tpt.Y[last] >= bf.Y[last] {
		t.Errorf("fig11b: TPT %vµs not below brute force %vµs at max size", tpt.Y[last], bf.Y[last])
	}
}

func TestPruningQuickShape(t *testing.T) {
	figs := mustRun(t, "pruning")
	f := figs[0]
	checkFigure(t, f)
	pruned, unpruned, reduction := f.Series[0], f.Series[1], f.Series[2]
	for i := range pruned.Y {
		if pruned.Y[i] >= unpruned.Y[i] {
			t.Errorf("pruning: pruned %v not below unpruned %v", pruned.Y[i], unpruned.Y[i])
		}
		if reduction.Y[i] <= 0 || reduction.Y[i] >= 100 {
			t.Errorf("pruning: reduction %v%% out of range", reduction.Y[i])
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	for _, name := range []string{"weights", "bqp-penalty", "trelax", "fallback", "tpt-chooseleaf"} {
		for _, f := range mustRun(t, name) {
			checkFigure(t, f)
		}
	}
}

func TestEvalQuickShape(t *testing.T) {
	figs := mustRun(t, "eval")
	if len(figs)%2 != 0 {
		t.Fatalf("eval returned %d figures, want hit+error pairs", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	// Bike (strong patterns): at the longest, distant horizon the pattern
	// paths must beat the motion fallback on both online measures — the
	// prequential counters reproduce the paper's offline ordering.
	hit, errFig := figs[0], figs[1]
	hpmHit, rmfHit := hit.Series[0], hit.Series[1]
	last := len(hpmHit.Y) - 1
	if hpmHit.Y[last] <= rmfHit.Y[last] {
		t.Errorf("eval Bike: online hit rate %v not above fallback %v at max horizon",
			hpmHit.Y[last], rmfHit.Y[last])
	}
	hpmErr, rmfErr := errFig.Series[0], errFig.Series[1]
	if hpmErr.Y[last] >= rmfErr.Y[last] {
		t.Errorf("eval Bike: online error %v not below fallback %v at max horizon",
			hpmErr.Y[last], rmfErr.Y[last])
	}
}

func TestMarkovQuickShape(t *testing.T) {
	figs := mustRun(t, "markov")
	if len(figs)%2 != 0 {
		t.Fatalf("markov returned %d figures, want hit+error pairs", len(figs))
	}
	// Per dataset: the hit and error figures carry the three single paths.
	for _, f := range figs {
		checkFigure(t, f)
		if len(f.Series) != 3 {
			t.Errorf("%s: %d series, want 3 ensemble columns", f.ID, len(f.Series))
		}
	}
}

func TestRetrainQuickShape(t *testing.T) {
	figs := mustRun(t, "retrain")
	if len(figs) != 2 {
		t.Fatalf("retrain returned %d figures, want cost + accuracy", len(figs))
	}
	for _, f := range figs {
		checkFigure(t, f)
	}
	cost := figs[0]
	if len(cost.Series) != 3 {
		t.Fatalf("retrain-cost has %d series, want full/extend/windowed", len(cost.Series))
	}
	// Per-update cost: the incremental paths must undercut the full
	// retrain on average — individual samples are wall-clock noisy, the
	// means are not.
	mean := func(s Series) float64 {
		var sum float64
		for _, y := range s.Y {
			sum += y
		}
		return sum / float64(len(s.Y))
	}
	batch := mean(cost.Series[0])
	if ext := mean(cost.Series[1]); ext >= batch {
		t.Errorf("mean extend cost %v not below mean full-retrain cost %v", ext, batch)
	}
	if win := mean(cost.Series[2]); win >= batch {
		t.Errorf("mean windowed-extend cost %v not below mean full-retrain cost %v", win, batch)
	}
}

func mustRun(t *testing.T, name string) []Figure {
	t.Helper()
	e, ok := Get(name)
	if !ok {
		t.Fatalf("experiment %q missing", name)
	}
	figs := e.Run(quickOpts())
	if len(figs) == 0 {
		t.Fatalf("%s returned no figures", name)
	}
	return figs
}

func TestWriteTable(t *testing.T) {
	f := Figure{
		ID: "demo", Title: "Demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
			{Name: "b", X: []float64{1, 2}, Y: []float64{30, 40}},
		},
	}
	var buf bytes.Buffer
	f.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "Demo", "a", "b", "10.00", "40.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

// TestCheck: a recorded run matches a reprint whose timings and
// completed-in suffixes moved, and nothing else; a moved accuracy value, a
// moved x value of a timing figure, a missing row and a section the
// recording lacks are each reported.
func TestCheck(t *testing.T) {
	recorded := `== acc: accuracy (completed in 1.5s)
# acc — Accuracy
# length              HPM              RMF   (average error (distance))
  20                        30.85           481.38

== cost: cost (completed in 2s)
# cost — Query Response Time
# subs              HPM              RMF   (response time (µs/query))
  10                       625.97           644.57
  20                       177.33           644.57

== other: not printed (completed in 1s)
# other — x
`
	same := strings.NewReplacer("1.5s", "9ms", "625.97", "700.01", "644.57", "1.00").Replace(recorded)
	same = same[:strings.Index(same, "== other")]
	if d := Check(recorded, same); len(d) != 0 {
		t.Errorf("timings and suffixes moved: %q", d)
	}
	for _, tc := range []struct{ name, run string }{
		{"an accuracy value", strings.Replace(same, "30.85", "30.86", 1)},
		{"a timing figure's x", strings.Replace(same, "  20                       177.33", "  21                       177.33", 1)},
		{"a missing row", strings.Replace(same, "  20                       177.33           1.00\n", "", 1)},
		{"a header", strings.Replace(same, "(response time", "(latency time", 1)},
		{"a new section", same + "== new: new (completed in 1s)\n"},
	} {
		if d := Check(recorded, tc.run); len(d) != 1 {
			t.Errorf("%s: %d differences %q, want 1", tc.name, len(d), d)
		}
	}
}

// TestPaperNames: "-experiment paper" runs the paper's fourteen
// experiments, the ones results_full.txt records, and no serving extension.
func TestPaperNames(t *testing.T) {
	want := []string{"bqp-penalty", "fallback", "fig10", "fig11a", "fig11b", "fig5", "fig6",
		"fig7", "fig8", "fig9", "pruning", "tpt-chooseleaf", "trelax", "weights"}
	if got := PaperNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("PaperNames() = %v, want %v", got, want)
	}
}
