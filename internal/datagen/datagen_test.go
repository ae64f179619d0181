package datagen

import (
	"math"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

func TestGenerateShape(t *testing.T) {
	for _, k := range Kinds {
		spec := DefaultSpec(k, 1)
		spec.SubTrajectories = 10
		tr := Generate(spec)
		if got, want := tr.Len(), 10*DefaultPeriod; got != want {
			t.Errorf("%s: length %d, want %d", k, got, want)
		}
		for i := 0; i < tr.Len(); i++ {
			if !Extent.Contains(tr.At(i)) {
				t.Fatalf("%s: point %d = %v outside extent", k, i, tr.At(i))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds {
		spec := DefaultSpec(k, 99)
		spec.SubTrajectories = 5
		a, b := Generate(spec), Generate(spec)
		if a.Len() != b.Len() {
			t.Fatalf("%s: lengths differ", k)
		}
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != b.At(i) {
				t.Fatalf("%s: point %d differs: %v vs %v", k, i, a.At(i), b.At(i))
			}
		}
		spec2 := spec
		spec2.Seed = 100
		c := Generate(spec2)
		same := true
		for i := 0; i < a.Len(); i++ {
			if a.At(i) != c.At(i) {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical data", k)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{Bike: "Bike", Cow: "Cow", Car: "Car", Airplane: "Airplane"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q", int(k), k.String())
		}
		back, err := ParseKind(want)
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v", want, back, err)
		}
	}
	if _, err := ParseKind("Submarine"); err == nil {
		t.Error("ParseKind accepted unknown name")
	}
}

// recurrentFraction measures pattern strength directly: the fraction of
// days that have a near-twin — another day whose mean per-offset distance
// is small. Days following a recurring route have twins; fresh random days
// do not. The datasets must keep the paper's strength ordering
// Bike > Airplane.
func recurrentFraction(t *testing.T, k Kind) float64 {
	t.Helper()
	spec := DefaultSpec(k, 7)
	spec.SubTrajectories = 50
	tr := Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	n := len(subs)
	meanDist := func(a, b int) float64 {
		var total float64
		count := 0
		for off := 0; off < spec.Period; off += 10 {
			total += subs[a].Points[off].Dist(subs[b].Points[off])
			count++
		}
		return total / float64(count)
	}
	recurrent := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if a != b && meanDist(a, b) < 400 {
				recurrent++
				break
			}
		}
	}
	return float64(recurrent) / float64(n)
}

func TestPatternStrengthOrdering(t *testing.T) {
	bike := recurrentFraction(t, Bike)
	air := recurrentFraction(t, Airplane)
	if bike <= air {
		t.Errorf("recurrent fraction Bike %v not above Airplane %v", bike, air)
	}
	if bike < 0.7 {
		t.Errorf("Bike recurrent fraction %v implausibly low", bike)
	}
}

func TestSpecDefaults(t *testing.T) {
	s := (Spec{Kind: Car}).withDefaults()
	if s.Period != DefaultPeriod || s.SubTrajectories != DefaultSubTrajectories {
		t.Errorf("defaults not applied: %+v", s)
	}
	f, noise := kindDefaults(Car)
	if s.FollowProb != f || s.Noise != noise {
		t.Errorf("kind defaults not applied: %+v", s)
	}
}

func TestSubTrajectoryDecomposition(t *testing.T) {
	spec := DefaultSpec(Cow, 3)
	spec.SubTrajectories = 8
	tr := Generate(spec)
	subs, err := tr.Decompose(spec.Period)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != 8 {
		t.Fatalf("decomposed into %d subs, want 8", len(subs))
	}
	var _ []trajectory.SubTrajectory = subs
}

func TestCarRouteHasSharpTurns(t *testing.T) {
	// The Car seed must include 90-degree direction changes: consecutive
	// movement vectors that are near-orthogonal.
	spec := DefaultSpec(Car, 5)
	spec.SubTrajectories = 1
	spec.Noise = 0.001 // expose the raw route
	spec.FollowProb = 1
	tr := Generate(spec)
	turns := 0
	for i := 2; i < tr.Len(); i++ {
		v1 := tr.At(i - 1).Sub(tr.At(i - 2))
		v2 := tr.At(i).Sub(tr.At(i - 1))
		if norm(v1) < 1 || norm(v2) < 1 {
			continue
		}
		cos := (v1.X*v2.X + v1.Y*v2.Y) / (norm(v1) * norm(v2))
		if cos < 0.3 && cos > -0.3 {
			turns++
		}
	}
	if turns == 0 {
		t.Error("car route has no sharp turns")
	}
}

func TestAirplaneFasterThanCow(t *testing.T) {
	speed := func(k Kind) float64 {
		spec := DefaultSpec(k, 11)
		spec.SubTrajectories = 2
		spec.Noise = 0.001
		spec.FollowProb = 1
		tr := Generate(spec)
		var total float64
		for i := 1; i < tr.Len(); i++ {
			total += tr.At(i).Dist(tr.At(i - 1))
		}
		return total / float64(tr.Len()-1)
	}
	if speed(Airplane) <= speed(Cow) {
		t.Error("airplane not faster than cow")
	}
}

// norm returns p's length as a vector from the origin.
func norm(p geom.Point) float64 { return math.Hypot(p.X, p.Y) }
