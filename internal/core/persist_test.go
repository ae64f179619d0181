package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"hpm/internal/datagen"
	"hpm/internal/trajectory"
)

func savedModel(t *testing.T) (*Model, []trajectory.SubTrajectory, datagen.Spec) {
	t.Helper()
	spec := datagen.DefaultSpec(datagen.Bike, 55)
	spec.Period = 80
	spec.SubTrajectories = 30
	tr := datagen.Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	m, err := TrainSubTrajectories(subs[:25], Params{Period: spec.Period})
	if err != nil {
		t.Fatal(err)
	}
	return m, subs, spec
}

// TestTrainIsDeterministic: two trains of the same sub-trajectories save
// the same bytes — regions, patterns, bounds and tree shape — for every
// dataset kind. A restart, a retrain and a twin store all lean on it.
func TestTrainIsDeterministic(t *testing.T) {
	for _, kind := range datagen.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			spec := datagen.DefaultSpec(kind, 7)
			spec.Period = 120
			spec.SubTrajectories = 30
			subs, err := datagen.Generate(spec).Decompose(spec.Period)
			if err != nil {
				t.Fatal(err)
			}
			var saved [2]bytes.Buffer
			for i := range saved {
				m, err := TrainSubTrajectories(subs, Params{Period: spec.Period})
				if err != nil {
					t.Fatal(err)
				}
				if m.NumRegions() == 0 || m.NumPatterns() == 0 {
					t.Fatalf("degenerate model: %d regions, %d patterns", m.NumRegions(), m.NumPatterns())
				}
				if err := m.Save(&saved[i]); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(saved[0].Bytes(), saved[1].Bytes()) {
				t.Fatalf("two trains of the same points saved %d and %d different bytes", saved[0].Len(), saved[1].Len())
			}
		})
	}
}

// TestTrainedModelBytes pins what Train saves for each kind, at the
// harness fleet's shape (T = 60, ten periods) and the paper's (T = 300, 60
// sub-trajectories), to the bytes of the level-wise Apriori join the walk
// replaced: the same rules in the same ref order, the same confidences,
// the same tree.
func TestTrainedModelBytes(t *testing.T) {
	want := map[string]string{
		"fleet/Bike":     "661fe48138e729a3d8fa4235f620840a3155dc924524d6dc685d95b9a7bf0897",
		"fleet/Cow":      "2187e87e6b38a768d7991651de73c7348612cbeb8c4a25d6f2d301bed5df3d72",
		"fleet/Car":      "807b8baad10780f48fdd9e7aab30f9b5c8d1c281410ec0ba16510ece5ab2cf05",
		"fleet/Airplane": "185a20364cf96799d52219b494f46756b5113becf942d242ffbf46548d9cfb2c",
		"paper/Bike":     "77c38f8141bb62a5d4af940b8030d651a19c40b094066e2753f01e53ec39555c",
		"paper/Cow":      "68cb3f2636263353ce8202b1a1df5b18c58b304a1c17c34359a0358699e9afe1",
		"paper/Car":      "5f9ac8172be969120c7bb5df8401deceee097a11f1619446f40ba1047f899dd4",
		"paper/Airplane": "5a33bee8e33daedd52d8c6b314ea51414c542dc221d7de52e640f5d7a95b7a52",
	}
	for _, shape := range []struct {
		name         string
		period, subs int
	}{{"fleet", fleetPeriod, fleetTrainPeriods}, {"paper", 300, 60}} {
		for _, kind := range datagen.Kinds {
			name := fmt.Sprintf("%s/%v", shape.name, kind)
			m, err := TrainSubTrajectories(fleetSubs(t, kind, shape.period, shape.subs), Params{Period: shape.period})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want[name] {
				t.Errorf("%s: %d rules save to sha256 %s, want %s", name, m.NumPatterns(), got, want[name])
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, subs, spec := savedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumPatterns() != m.NumPatterns() {
		t.Fatalf("patterns %d != %d", back.NumPatterns(), m.NumPatterns())
	}
	if back.NumRegions() != m.NumRegions() {
		t.Fatalf("regions %d != %d", back.NumRegions(), m.NumRegions())
	}
	if back.Bounds() != m.Bounds() {
		t.Errorf("bounds %v != %v", back.Bounds(), m.Bounds())
	}
	if back.Params().Period != m.Params().Period ||
		back.Params().Eps != m.Params().Eps {
		t.Errorf("params differ: %+v vs %+v", back.Params(), m.Params())
	}

	// Predictions from the loaded model must match the original exactly.
	day := subs[27]
	base := 27 * spec.Period
	var recent []trajectory.TimedPoint
	for off := 10; off < 20; off++ {
		recent = append(recent, trajectory.TimedPoint{T: base + off, Loc: day.Points[off]})
	}
	for _, horizon := range []int{5, 20, 50} {
		want, err := m.Predict(recent, base+19+horizon, 2)
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.Predict(recent, base+19+horizon, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("horizon %d: %d vs %d predictions", horizon, len(got), len(want))
		}
		for i := range want {
			if got[i].Location != want[i].Location || got[i].Source != want[i].Source {
				t.Errorf("horizon %d pred %d: %+v vs %+v", horizon, i, got[i], want[i])
			}
		}
	}
}

func TestLoadedModelSupportsExtend(t *testing.T) {
	m, subs, _ := savedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.Extend(subs[25:30])
	if err != nil {
		t.Fatal(err)
	}
	if back.regions.NumSubTrajectories() != 30 {
		t.Errorf("loaded model absorbed %d subs", back.regions.NumSubTrajectories())
	}
	if back.TreeStats().Items != res.TotalPatterns {
		t.Errorf("tree %d != patterns %d after extend", back.TreeStats().Items, res.TotalPatterns)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("not a model"),
		[]byte("HPMM\x03"),          // wrong version
		[]byte("HPMM\x01\x05xxxxx"), // params cut short / invalid JSON
		[]byte("XXXX\x01"),          // wrong magic
	}
	for i, in := range cases {
		if _, err := Load(bytes.NewReader(in)); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	m, _, _ := savedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut the stream at several depths; every cut must error, never panic
	// or silently succeed.
	for _, frac := range []float64{0.1, 0.5, 0.9, 0.999} {
		cut := int(float64(len(full)) * frac)
		if _, err := Load(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d/%d accepted", cut, len(full))
		}
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	m, _, _ := savedModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flipping the trailer must be caught by the trailer check.
	mangled := append([]byte(nil), full...)
	mangled[len(mangled)-1] ^= 0xFF
	if _, err := Load(bytes.NewReader(mangled)); err == nil {
		t.Error("mangled trailer accepted")
	}
}
