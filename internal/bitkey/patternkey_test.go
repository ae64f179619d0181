package bitkey

import (
	"math/rand"
	"testing"
)

// Paper Table III: pattern keys for the four Jane patterns with a 2-bit
// consequence key and 5-bit premise key.
func TestPaperPatternKeys(t *testing.T) {
	tests := []struct {
		name string
		pk   PatternKey
		want string
	}{
		// P0: R0^0 -> R1^0  (consequence offset 1 => time id 0 => ck 01)
		{"P0", PatternKey{CK: MustParse("01"), RK: MustParse("00001")}, "0100001"},
		// P1: R0^0 -> R1^1
		{"P1", PatternKey{CK: MustParse("01"), RK: MustParse("00001")}, "0100001"},
		// P2: R0^0 ∧ R1^0 -> R2^0  (consequence offset 2 => time id 1 => ck 10)
		{"P2", PatternKey{CK: MustParse("10"), RK: MustParse("00011")}, "1000011"},
		// P3: R0^0 ∧ R1^1 -> R2^1
		{"P3", PatternKey{CK: MustParse("10"), RK: MustParse("00101")}, "1000101"},
	}
	for _, tt := range tests {
		if got := tt.pk.String(); got != tt.want {
			t.Errorf("%s key = %s, want %s", tt.name, got, tt.want)
		}
	}
	// P0 and P1 share the same pattern key — the paper notes this collision
	// is expected because multiple frequent regions can share a consequence
	// time offset.
	if !tests[0].pk.Equal(tests[1].pk) {
		t.Error("P0 and P1 should share the same pattern key")
	}
}

// Paper §VI-B worked query: Jane's recent movements R0^0, R1^0 with tq = 2
// give query key 1000011; it must intersect P2 (1000011) and P3 (1000101)
// but not P0/P1 (0100001) whose consequence offset differs.
func TestPaperQueryIntersection(t *testing.T) {
	q := MustParsePattern("1000011", 2)
	p0 := MustParsePattern("0100001", 2)
	p2 := MustParsePattern("1000011", 2)
	p3 := MustParsePattern("1000101", 2)

	if q.Intersects(p0) {
		t.Error("query should not intersect P0: consequence offsets differ")
	}
	if !q.Intersects(p2) {
		t.Error("query should intersect P2")
	}
	if !q.Intersects(p3) {
		t.Error("query should intersect P3: shares premise bit 1 and consequence bit")
	}
}

func TestIntersectRequiresBothParts(t *testing.T) {
	// Same consequence, disjoint premise: Intersect must be false, but
	// the BQP predicate (consequence only) must be true.
	a := PatternKey{CK: MustParse("10"), RK: MustParse("00011")}
	b := PatternKey{CK: MustParse("10"), RK: MustParse("01100")}
	if a.Intersects(b) {
		t.Error("disjoint premises must not Intersect")
	}
	if !a.IntersectsConsequence(b) {
		t.Error("IntersectsConsequence must hold for shared consequence bit")
	}
	// Same premise, disjoint consequence.
	c := PatternKey{CK: MustParse("01"), RK: MustParse("00011")}
	if a.Intersects(c) {
		t.Error("disjoint consequences must not Intersect")
	}
	if a.IntersectsConsequence(c) {
		t.Error("IntersectsConsequence must be false for disjoint consequence")
	}
}

func TestPatternKeyUnionContainment(t *testing.T) {
	a := MustParsePattern("1000011", 2)
	b := MustParsePattern("0100101", 2)
	u := a.Union(b)
	if !u.Contains(a) || !u.Contains(b) {
		t.Error("union must contain both operands")
	}
	if u.String() != "1100111" {
		t.Errorf("union = %s, want 1100111", u)
	}
	if u.Size() != 5 {
		t.Errorf("union size = %d, want 5", u.Size())
	}
}

func TestPatternKeyDifference(t *testing.T) {
	a := MustParsePattern("1000011", 2)
	b := MustParsePattern("1000001", 2)
	if got := a.Difference(b); got != 1 {
		t.Errorf("Difference = %d, want 1", got)
	}
	if got := b.Difference(a); got != 0 {
		t.Errorf("reverse Difference = %d, want 0", got)
	}
}

func TestUnionInPlaceMatchesUnion(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		ckLen, rkLen := 1+r.Intn(20), 1+r.Intn(100)
		a := PatternKey{CK: randomKey(r, ckLen), RK: randomKey(r, rkLen)}
		b := PatternKey{CK: randomKey(r, ckLen), RK: randomKey(r, rkLen)}
		want := a.Union(b)
		got := a.Clone()
		got.UnionInPlace(b)
		if !got.Equal(want) {
			t.Fatalf("UnionInPlace mismatch: %s vs %s", got, want)
		}
	}
}

func TestPatternKeyBytes(t *testing.T) {
	p := NewPatternKey(2, 5) // 7 bits -> 1 byte
	if p.Bytes() != 1 {
		t.Errorf("Bytes = %d, want 1", p.Bytes())
	}
	p = NewPatternKey(100, 800) // 900 bits -> 113 bytes
	if p.Bytes() != 113 {
		t.Errorf("Bytes = %d, want 113", p.Bytes())
	}
}

func TestParsePatternErrors(t *testing.T) {
	if _, err := ParsePattern("0101", 5); err == nil {
		t.Error("ckLen > len accepted")
	}
	if _, err := ParsePattern("01x1", 2); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestIsZeroAndClone(t *testing.T) {
	p := NewPatternKey(2, 5)
	if !p.CK.IsZero() || !p.RK.IsZero() {
		t.Error("fresh pattern key not zero")
	}
	p.CK.Set(1)
	c := p.Clone()
	c.RK.Set(3)
	if p.RK.Bit(3) {
		t.Error("Clone aliases storage")
	}
}
