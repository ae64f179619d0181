package hpa

import (
	"math"
	"math/rand"
	"testing"

	"hpm/internal/bitkey"
)

func TestWeightsSumToOne(t *testing.T) {
	for _, w := range []WeightFunc{WeightLinear, WeightQuadratic, WeightExponential, WeightFactorial} {
		for size := 1; size <= 8; size++ {
			ws := w.Weights(size)
			if len(ws) != size {
				t.Fatalf("%s: Weights(%d) length %d", w, size, len(ws))
			}
			var sum float64
			for i, v := range ws {
				sum += v
				if i > 0 && v <= ws[i-1] {
					t.Errorf("%s size %d: weight %d not increasing (%v <= %v)", w, size, i+1, v, ws[i-1])
				}
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("%s: Weights(%d) sum %v", w, size, sum)
			}
		}
	}
}

func TestWeightValues(t *testing.T) {
	// Linear over size 2: 1/3, 2/3 — the paper's worked example.
	ws := WeightLinear.Weights(2)
	if math.Abs(ws[0]-1.0/3) > 1e-12 || math.Abs(ws[1]-2.0/3) > 1e-12 {
		t.Errorf("linear weights = %v, want [1/3 2/3]", ws)
	}
	// Quadratic over size 3: 1/14, 4/14, 9/14.
	ws = WeightQuadratic.Weights(3)
	for i, want := range []float64{1.0 / 14, 4.0 / 14, 9.0 / 14} {
		if math.Abs(ws[i]-want) > 1e-12 {
			t.Errorf("quadratic weight %d = %v, want %v", i, ws[i], want)
		}
	}
	// Exponential over size 3: 2/14, 4/14, 8/14.
	ws = WeightExponential.Weights(3)
	for i, want := range []float64{2.0 / 14, 4.0 / 14, 8.0 / 14} {
		if math.Abs(ws[i]-want) > 1e-12 {
			t.Errorf("exponential weight %d = %v, want %v", i, ws[i], want)
		}
	}
	// Factorial over size 3: 1/9, 2/9, 6/9.
	ws = WeightFactorial.Weights(3)
	for i, want := range []float64{1.0 / 9, 2.0 / 9, 6.0 / 9} {
		if math.Abs(ws[i]-want) > 1e-12 {
			t.Errorf("factorial weight %d = %v, want %v", i, ws[i], want)
		}
	}
}

// TestWeightsMemoMatchesComputation: the memoized vectors, on their first
// call and on later ones, are the computed ones bit for bit, and sizes past
// the memo are computed too.
func TestWeightsMemoMatchesComputation(t *testing.T) {
	for _, w := range []WeightFunc{WeightLinear, WeightQuadratic, WeightExponential, WeightFactorial} {
		for size := 1; size <= weightMemoMax+2; size++ {
			want := w.computeWeights(size)
			for call := 0; call < 2; call++ {
				got := w.Weights(size)
				if len(got) != len(want) {
					t.Fatalf("%s size %d: %d weights, want %d", w, size, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s size %d call %d: ω_%d = %v, computed %v", w, size, call, i+1, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestWeightsEmpty(t *testing.T) {
	if got := WeightLinear.Weights(0); got != nil {
		t.Errorf("Weights(0) = %v, want nil", got)
	}
}

func TestWeightString(t *testing.T) {
	names := map[WeightFunc]string{
		WeightLinear:      "linear",
		WeightQuadratic:   "quadratic",
		WeightExponential: "exponential",
		WeightFactorial:   "factorial",
	}
	for w, want := range names {
		if w.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(w), w.String(), want)
		}
	}
}

// mustParse reads a key in the paper's notation, most significant bit
// first (Table I).
func mustParse(s string) bitkey.Key {
	k := bitkey.New(len(s))
	for i, c := range s {
		if c == '1' {
			k.Set(len(s) - i)
		}
	}
	return k
}

// The paper's §VI-A examples: similarity(00011, 00011) = 1 and
// similarity(00011, 00010) = 2/3 under the linear weight function.
func TestPremiseSimilarityPaperExamples(t *testing.T) {
	rk := mustParse("00011")
	if got := PremiseSimilarity(rk, mustParse("00011"), WeightLinear); math.Abs(got-1) > 1e-12 {
		t.Errorf("similarity(00011,00011) = %v, want 1", got)
	}
	if got := PremiseSimilarity(rk, mustParse("00010"), WeightLinear); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("similarity(00011,00010) = %v, want 2/3", got)
	}
	// The P3 case from §VI-B: rk=00101 vs rkq=00011 shares only the first
	// '1' of rk, whose ordinal weight is 1/3.
	if got := PremiseSimilarity(mustParse("00101"), mustParse("00011"), WeightLinear); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("similarity(00101,00011) = %v, want 1/3", got)
	}
}

func TestPremiseSimilarityOrdinalSemantics(t *testing.T) {
	// Weights attach to the ordinals of rk's own ones, not raw positions:
	// rk=10100 has ones at raw positions 3 and 5 with ordinals 1 and 2.
	rk := mustParse("10100")
	// Query matching only the higher '1' gets the larger weight 2/3.
	if got := PremiseSimilarity(rk, mustParse("10000"), WeightLinear); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("high-position match = %v, want 2/3", got)
	}
	// Query matching only the lower '1' gets 1/3.
	if got := PremiseSimilarity(rk, mustParse("00100"), WeightLinear); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("low-position match = %v, want 1/3", got)
	}
}

func TestPremiseSimilarityBounds(t *testing.T) {
	rk := mustParse("01110")
	queries := []string{"00000", "01110", "11111", "00010", "10001"}
	for _, qs := range queries {
		got := PremiseSimilarity(rk, mustParse(qs), WeightQuadratic)
		if got < 0 || got > 1+1e-12 {
			t.Errorf("similarity(%s) = %v out of [0,1]", qs, got)
		}
	}
	// Empty premise key: similarity is 0 by definition.
	if got := PremiseSimilarity(mustParse("00000"), mustParse("11111"), WeightLinear); got != 0 {
		t.Errorf("empty premise similarity = %v", got)
	}
}

// refPremiseSimilarity is Equation 1 with the same fast paths, its partial
// match by way of rk.Ones(): the ordinals of rk's '1's listed, then each
// looked up in rkq.
func refPremiseSimilarity(rk, rkq bitkey.Key, w WeightFunc) float64 {
	shared := rk.AndSize(rkq)
	if shared == 0 {
		return 0
	}
	if shared == rk.Size() {
		return 1
	}
	ones := rk.Ones()
	weights := w.Weights(len(ones))
	var s float64
	for i, pos := range ones {
		if rkq.Bit(pos) {
			s += weights[i]
		}
	}
	return s
}

// TestPremiseSimilarityMatchesOnes holds the in-place bit walk to the
// Ones-based form bit for bit, for every weight function, over random keys
// of one to three words with every overlap from none to full.
func TestPremiseSimilarityMatchesOnes(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(190)
		rk, rkq := bitkey.New(n), bitkey.New(n)
		for b := 1 + rng.Intn(8); b > 0; b-- {
			p := 1 + rng.Intn(n)
			rk.Set(p)
			if rng.Intn(2) == 0 {
				rkq.Set(p)
			}
		}
		for b := rng.Intn(6); b > 0; b-- {
			rkq.Set(1 + rng.Intn(n))
		}
		for _, w := range []WeightFunc{WeightLinear, WeightQuadratic, WeightExponential, WeightFactorial} {
			got, want := PremiseSimilarity(rk, rkq, w), refPremiseSimilarity(rk, rkq, w)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s rk=%v rkq=%v: %v, Ones-based %v", w, rk.Ones(), rkq.Ones(), got, want)
			}
		}
	}
}

// premiseBenchKeys is a five-region premise of which the query shares two:
// the partial match that neither fast path takes.
func premiseBenchKeys() (rk, rkq bitkey.Key) {
	rk = bitkey.New(800)
	for _, p := range []int{3, 120, 240, 555, 700} {
		rk.Set(p)
	}
	rkq = bitkey.New(800)
	for p := 100; p <= 260; p += 4 {
		rkq.Set(p)
	}
	return rk, rkq
}

func TestPremiseSimilarityAllocatesNothing(t *testing.T) {
	rk, rkq := premiseBenchKeys()
	PremiseSimilarity(rk, rkq, WeightLinear) // memoize the weights
	if n := testing.AllocsPerRun(100, func() { PremiseSimilarity(rk, rkq, WeightLinear) }); n != 0 {
		t.Errorf("PremiseSimilarity allocates %v times per partial match, want 0", n)
	}
}

func BenchmarkPremiseSimilarity(b *testing.B) {
	rk, rkq := premiseBenchKeys()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = PremiseSimilarity(rk, rkq, WeightLinear)
	}
}
