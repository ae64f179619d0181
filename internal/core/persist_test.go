package core

import (
	"bytes"
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
	if back.Regions().NumSubTrajectories() != 30 {
		t.Errorf("loaded model absorbed %d subs", back.Regions().NumSubTrajectories())
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
