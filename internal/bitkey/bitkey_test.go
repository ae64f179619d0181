package bitkey

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndSet(t *testing.T) {
	k := New(5)
	if k.Len() != 5 || k.Size() != 0 || !k.IsZero() {
		t.Fatalf("fresh key wrong: len=%d size=%d", k.Len(), k.Size())
	}
	k.Set(1)
	k.Set(5)
	if !k.Bit(1) || !k.Bit(5) || k.Bit(3) {
		t.Errorf("bits wrong after Set: %s", k)
	}
	if k.Size() != 2 {
		t.Errorf("Size = %d, want 2", k.Size())
	}
	k.Clear(5)
	if k.Bit(5) || k.Size() != 1 {
		t.Errorf("Clear failed: %s", k)
	}
}

func TestSetOutOfRangePanics(t *testing.T) {
	k := New(5)
	for _, p := range []int{0, 6, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", p)
				}
			}()
			k.Set(p)
		}()
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, s := range []string{"00001", "00011", "10101", "0", "1", "0100001"} {
		k := MustParse(s)
		if k.String() != s {
			t.Errorf("round trip %q -> %q", s, k.String())
		}
	}
	if _, err := Parse("0102"); err == nil {
		t.Error("Parse accepted invalid characters")
	}
}

// Paper Table I: region keys for 5 frequent regions are powers of two.
func TestPaperRegionKeys(t *testing.T) {
	want := []string{"00001", "00010", "00100", "01000", "10000"}
	for id, s := range want {
		k := FromPositions(5, id+1)
		if k.String() != s {
			t.Errorf("region id %d key = %s, want %s", id, k, s)
		}
	}
}

// Paper §V-A: the premise key for R0^0 ∧ R1^0 is the OR of their region
// keys: 00001 | 00010 = 00011.
func TestPaperPremiseKeyComposition(t *testing.T) {
	r00 := MustParse("00001")
	r10 := MustParse("00010")
	r11 := MustParse("00100")
	if got := r00.Or(r10).String(); got != "00011" {
		t.Errorf("premise key = %s, want 00011", got)
	}
	if got := r00.Or(r11).String(); got != "00101" {
		t.Errorf("premise key = %s, want 00101", got)
	}
}

func TestContains(t *testing.T) {
	a := MustParse("00111")
	tests := []struct {
		b    string
		want bool
	}{
		{"00111", true},
		{"00011", true},
		{"00000", true},
		{"01000", false},
		{"01111", false},
	}
	for _, tt := range tests {
		if got := a.Contains(MustParse(tt.b)); got != tt.want {
			t.Errorf("Contains(%s) = %v, want %v", tt.b, got, tt.want)
		}
	}
}

func TestDifference(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{"00111", "00111", 0},
		{"00111", "00000", 3},
		{"00111", "00011", 1},
		{"11000", "00111", 2},
	}
	for _, tt := range tests {
		a, b := MustParse(tt.a), MustParse(tt.b)
		if got := a.Difference(b); got != tt.want {
			t.Errorf("Difference(%s,%s) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestOnes(t *testing.T) {
	k := MustParse("10101")
	got := k.Ones()
	want := []int{1, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Ones = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ones = %v, want %v", got, want)
		}
	}
}

func TestOnesLargeKey(t *testing.T) {
	// Span multiple 64-bit words.
	k := New(200)
	positions := []int{1, 63, 64, 65, 128, 129, 200}
	for _, p := range positions {
		k.Set(p)
	}
	got := k.Ones()
	if len(got) != len(positions) {
		t.Fatalf("Ones = %v, want %v", got, positions)
	}
	for i := range positions {
		if got[i] != positions[i] {
			t.Fatalf("Ones = %v, want %v", got, positions)
		}
	}
	if k.Size() != len(positions) {
		t.Errorf("Size = %d, want %d", k.Size(), len(positions))
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	a, b := New(5), New(6)
	defer func() {
		if recover() == nil {
			t.Error("Or with mismatched lengths did not panic")
		}
	}()
	a.Or(b)
}

// randomKey builds a reproducible random key for property tests.
func randomKey(r *rand.Rand, n int) Key {
	k := New(n)
	for p := 1; p <= n; p++ {
		if r.Intn(2) == 1 {
			k.Set(p)
		}
	}
	return k
}

func TestBitAlgebraProperties(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(130)
		a, b := randomKey(r, n), randomKey(r, n)

		// Size(a|b) + Size(a&b) == Size(a) + Size(b)
		if a.Or(b).Size()+a.And(b).Size() != a.Size()+b.Size() {
			t.Fatal("inclusion-exclusion violated")
		}
		// a|b contains both operands.
		u := a.Or(b)
		if !u.Contains(a) || !u.Contains(b) {
			t.Fatal("union does not contain operands")
		}
		// Difference(a,b) == Size(a) - Size(a&b)
		if a.Difference(b) != a.Size()-a.AndSize(b) {
			t.Fatal("Difference identity violated")
		}
		// Intersects symmetric and consistent with AndSize.
		if a.Intersects(b) != (a.AndSize(b) > 0) || a.Intersects(b) != b.Intersects(a) {
			t.Fatal("Intersects inconsistent")
		}
		// SharedBitWords is the lowest position of a&b, 0-based, or -1.
		want := -1
		if shared := a.And(b).Ones(); len(shared) > 0 {
			want = shared[0] - 1
		}
		if got := SharedBitWords(a.Words(), b.Words()); got != want {
			t.Fatalf("SharedBitWords = %d, lowest shared bit %d", got, want)
		}
		// Contains(a, a&b) always.
		if !a.Contains(a.And(b)) {
			t.Fatal("a does not contain a&b")
		}
		// Xor self is zero.
		if !a.Xor(a).IsZero() {
			t.Fatal("a^a != 0")
		}
		// Ones matches Size and Bit.
		ones := a.Ones()
		if len(ones) != a.Size() {
			t.Fatal("Ones length != Size")
		}
		for _, p := range ones {
			if !a.Bit(p) {
				t.Fatal("Ones reported unset bit")
			}
		}
	}
}

func TestParseStringInverseProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		k := randomKey(rand.New(rand.NewSource(seed)), n)
		back := MustParse(k.String())
		return back.Equal(k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytes(t *testing.T) {
	tests := []struct{ n, want int }{{1, 1}, {8, 1}, {9, 2}, {64, 8}, {65, 9}}
	for _, tt := range tests {
		if got := New(tt.n).Bytes(); got != tt.want {
			t.Errorf("Bytes(len %d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestGrown(t *testing.T) {
	k := MustParse("10101")
	g := k.Grown(9)
	if g.Len() != 9 || g.String() != "000010101" {
		t.Errorf("Grown = %s (len %d)", g, g.Len())
	}
	// Original untouched, copies independent.
	g.Set(9)
	if k.Len() != 5 || k.Size() != 3 {
		t.Error("Grown aliased the original")
	}
	// Same-length grow is a copy.
	if c := k.Grown(5); !c.Equal(k) {
		t.Error("Grown(same) != original")
	}
	defer func() {
		if recover() == nil {
			t.Error("shrinking did not panic")
		}
	}()
	k.Grown(3)
}

func TestMarshalBinaryRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		k := randomKey(r, r.Intn(300))
		data, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var back Key
		if err := back.UnmarshalBinary(data); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if !back.Equal(k) {
			t.Fatalf("round trip mismatch: %s vs %s", back, k)
		}
	}
}

func TestUnmarshalBinaryRejectsCorruption(t *testing.T) {
	k := MustParse("1010110011")
	data, _ := k.MarshalBinary()
	var back Key
	if err := back.UnmarshalBinary(nil); err == nil {
		t.Error("empty data accepted")
	}
	if err := back.UnmarshalBinary(data[:1]); err == nil {
		t.Error("truncated data accepted")
	}
	long := append(append([]byte{}, data...), 0xFF)
	if err := back.UnmarshalBinary(long); err == nil {
		t.Error("oversized data accepted")
	}
}
