package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/tpt"
	"hpm/internal/trajectory"
)

// livedInModel trains a model under a sliding history window and carries it
// through single-day Extends that visit a haunt no trained region covers:
// regions are minted, patterns promoted through them — their consequence
// offsets appended to the table out of order — and older patterns retired
// as their days leave the window, so the engine's refs have holes and its
// tree was rearranged by Insert, Delete and GrowKeys. The Markov
// path is off: a loaded model's chain starts empty, the live one's does not.
func livedInModel(t testing.TB) (*Model, []trajectory.SubTrajectory, int) {
	t.Helper()
	const period, trained = 60, 12
	subs, err := datagen.Generate(datagen.Spec{Kind: datagen.Bike, Period: period, SubTrajectories: 30, Seed: 23}).Decompose(period)
	if err != nil {
		t.Fatal(err)
	}
	// Offsets 20 to 29 are scattered on the trained days, so no rule
	// predicts them, and spent at one haunt on the days that follow;
	// offsets 40 to 49 scatter once training is over, so the rules through
	// them lose their support as the window slides.
	for i := range subs {
		for off := 20; off < 30; off++ {
			nowhere := geom.Pt(-5000*float64(i+1), 7000*float64(off))
			if i < trained {
				subs[i].Points[off] = nowhere
			} else {
				subs[i].Points[off] = geom.Pt(90000+float64(i), 90000+float64(off))
				subs[i].Points[off+20] = nowhere
			}
		}
	}
	m, err := TrainSubTrajectories(subs[:trained], Params{Period: period, HistoryWindow: 14, MarkovOrder: -1})
	if err != nil {
		t.Fatal(err)
	}
	minted, retired := 0, 0
	for _, day := range subs[trained:] {
		res, err := m.Extend([]trajectory.SubTrajectory{day})
		if err != nil {
			t.Fatal(err)
		}
		minted += res.NewRegions
		retired += res.RetiredPatterns
	}
	if offsets := m.encoder.ConsequenceTable().Offsets(); minted == 0 || retired == 0 || slices.IsSorted(offsets) {
		t.Fatalf("the model did not live: %d regions minted, %d patterns retired (%d refs, %d live), consequence offsets %v",
			minted, retired, m.engine.Refs(), m.engine.LivePatterns(), offsets)
	}
	return m, subs, period
}

// savedShape is the shape Save writes for m: the tree's, with refs
// renumbered to live rank.
func savedShape(m *Model) tpt.Shape {
	_, rank := m.livePatterns()
	sh := m.engine.Tree().Shape()
	for i, ref := range sh.Refs {
		sh.Refs[i] = rank[ref]
	}
	return sh
}

// sortedTwin is the model Load would build from the same stream had it no
// shape to read: the loaded parts assembled again with a nil shape, which
// sorts the patterns into a tree as Train does.
func sortedTwin(t testing.TB, loaded *Model) *Model {
	t.Helper()
	live, _ := loaded.livePatterns()
	twin, err := assemble(loaded.params, loaded.regions, live, loaded.bounds, nil)
	if err != nil {
		t.Fatalf("assembling the loaded parts without a shape: %v", err)
	}
	return twin
}

// TestLoadReadsSavedShape: a model that lived through Extends comes back
// with the tree it was saved with — same arrangement, refs at live rank,
// every leaf key the encoding of its pattern under the loaded tables — and
// answers exactly like the model that was never saved and like the same
// parts assembled without the shape, through the sort.
func TestLoadReadsSavedShape(t *testing.T) {
	m, subs, period := livedInModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	read, err := Load(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	sorted := sortedTwin(t, read)
	want := savedShape(m)
	if got := read.engine.Tree().Shape(); !reflect.DeepEqual(got, want) {
		t.Fatal("the loaded tree does not have the saved tree's shape")
	}
	if reflect.DeepEqual(sorted.engine.Tree().Shape(), want) {
		t.Fatal("the lived-in tree is packed like a fresh bulk load: the test shows nothing")
	}
	for _, back := range []*Model{read, sorted} {
		if back.NumPatterns() != m.NumPatterns() || back.engine.Refs() != m.NumPatterns() {
			t.Fatalf("%d live patterns under %d refs, saved %d", back.NumPatterns(), back.engine.Refs(), m.NumPatterns())
		}
		leaves := 0
		back.engine.Tree().All(func(it tpt.Item) bool {
			leaves++
			p := back.engine.Pattern(it.Ref)
			if !it.Key.Equal(back.encoder.Encode(p)) || it.Conf != p.Confidence {
				t.Fatalf("leaf of ref %d: key %s conf %g, pattern encodes to %s conf %g",
					it.Ref, it.Key, it.Conf, back.encoder.Encode(p), p.Confidence)
			}
			return true
		})
		if leaves != m.NumPatterns() {
			t.Fatalf("%d leaf entries for %d patterns", leaves, m.NumPatterns())
		}
	}

	// The unsaved model names patterns by refs with holes, the loaded ones
	// by rank: renumber before comparing, the order-preserving way Save does.
	_, rank := m.livePatterns()
	atRank := func(ps []hpa.Prediction) []hpa.Prediction {
		out := append([]hpa.Prediction(nil), ps...)
		for i := range out {
			if out[i].PatternRef >= 0 {
				out[i].PatternRef = int(rank[out[i].PatternRef])
			}
		}
		return out
	}
	queries, byPattern := 0, 0
	for day := len(subs) - 6; day < len(subs); day++ {
		for _, at := range []int{9, 24, 41} {
			var recent []trajectory.TimedPoint
			for off := at - 9; off <= at; off++ {
				recent = append(recent, trajectory.TimedPoint{T: day*period + off, Loc: subs[day].Points[off]})
			}
			var tqs []int
			for _, h := range []int{1, 3, 8, 20, 59, 75, 130} {
				tqs = append(tqs, day*period+at+h)
			}
			batchWant, err := m.PredictBatch(recent, tqs, 3)
			if err != nil {
				t.Fatal(err)
			}
			for _, back := range []*Model{read, sorted} {
				batch, err := back.PredictBatch(recent, tqs, 3)
				if err != nil {
					t.Fatal(err)
				}
				for i, tq := range tqs {
					want, err := m.Predict(recent, tq, 3)
					if err != nil {
						t.Fatal(err)
					}
					got, err := back.Predict(recent, tq, 3)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, atRank(want)) || !reflect.DeepEqual(batch[i], atRank(batchWant[i])) {
						t.Fatalf("day %d offset %d tq %d (sorted=%v):\n got %+v\nwant %+v", day, at, tq, back == sorted, got, atRank(want))
					}
					queries++
					if len(want) > 0 && want[0].Source == hpa.SourcePattern {
						byPattern++
					}
				}
			}
		}
	}
	if byPattern < queries/4 {
		t.Fatalf("only %d of %d queries were answered by a pattern", byPattern, queries)
	}
}

// fixtureModel cuts the trained object's model stream out of the store's
// committed golden directory: bytes the parent commit wrote.
func fixtureModel(t testing.TB) []byte {
	t.Helper()
	seg, err := os.ReadFile(filepath.Join("..", "..", "store", "testdata", "fleet", "seg-00024-0000000001.hpms"))
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(seg, []byte(modelMagic+string(rune(modelVersion))))
	if start < 0 {
		t.Fatal("no current-version model stream in the fixture")
	}
	for end := start; ; {
		i := bytes.Index(seg[end:], []byte(modelTrailer))
		if i < 0 {
			t.Fatal("no prefix of the fixture's model stream loads")
		}
		end += i + len(modelTrailer)
		if _, err := Load(bytes.NewReader(seg[start:end])); err == nil {
			return seg[start:end]
		}
	}
}

// TestLoadRefusesRetiredVersion: a stream whose version byte is not
// modelVersion is refused by number, older or newer.
func TestLoadRefusesRetiredVersion(t *testing.T) {
	for _, v := range []byte{0, 1, modelVersion + 1} {
		stream := bytes.Clone(fixtureModel(t))
		stream[len(modelMagic)] = v
		_, err := Load(bytes.NewReader(stream))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d,", v)) || !strings.Contains(err.Error(), "DESIGN.md") {
			t.Errorf("version %d: %v, want a refusal that names the version and DESIGN.md's upgrade note", v, err)
		}
	}
}

// FuzzLoadModel: Load never panics, and a stream it accepts yields a model
// whose index holds exactly its patterns under their own keys, which
// answers, saves, and loads again. The seeds — the golden directory's
// stream, a freshly trained one, cuts and bit flips of both — run under
// plain go test.
func FuzzLoadModel(f *testing.F) {
	subs, err := datagen.Generate(datagen.Spec{Kind: datagen.Cow, Period: 30, SubTrajectories: 8, Seed: 7}).Decompose(30)
	if err != nil {
		f.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs, Params{Period: 30})
	if err != nil {
		f.Fatal(err)
	}
	var fresh bytes.Buffer
	if err := m.Save(&fresh); err != nil {
		f.Fatal(err)
	}
	for _, stream := range [][]byte{fixtureModel(f), fresh.Bytes()} {
		f.Add(stream)
		for _, cut := range []int{5, len(stream) / 3, len(stream) - 40, len(stream) - 5, len(stream) - 1} {
			f.Add(stream[:cut])
		}
		for at := 0; at < 12; at++ {
			flipped := bytes.Clone(stream)
			flipped[len(flipped)-1-at*len(flipped)/12] ^= 1 << (at % 8)
			f.Add(flipped)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		leaves := 0
		m.engine.Tree().All(func(it tpt.Item) bool {
			leaves++
			if !m.engine.IsLive(it.Ref) || !it.Key.Equal(m.encoder.Encode(m.engine.Pattern(it.Ref))) {
				t.Fatalf("leaf of ref %d does not hold its pattern's key", it.Ref)
			}
			return true
		})
		if leaves != m.NumPatterns() {
			t.Fatalf("%d leaf entries for %d patterns", leaves, m.NumPatterns())
		}
		period := m.Params().Period
		recent := []trajectory.TimedPoint{{T: period, Loc: geom.Pt(1, 2)}, {T: period + 1, Loc: geom.Pt(2, 3)}, {T: period + 2, Loc: geom.Pt(3, 5)}}
		for _, h := range []int{1, period / 2, 3 * period} {
			m.Predict(recent, period+2+h, 2) // an error is an answer; a panic is not
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("a loaded model does not save: %v", err)
		}
		if back, err := Load(&buf); err != nil || back.NumPatterns() != m.NumPatterns() {
			t.Fatalf("a loaded model's own stream: %v", err)
		}
	})
}
