package pattern

import (
	"bytes"
	"io"
	"testing"
)

// janePeriod bounds the offsets of the tables the codec tests decode:
// Jane's day has three.
const janePeriod = 3

func writePatterns(w io.Writer, ps []Pattern) error { return WriteRules(w, TableOf(ps), nil) }

// readPatterns decodes the rule list at the head of b, as a model's
// decode reads one.
func readPatterns(b []byte, rt *RegionTable) ([]Pattern, error) {
	c := NewCursor(b)
	t, err := ReadRules(&c, rt, Config{})
	if err != nil {
		return nil, err
	}
	return t.Patterns(), nil
}

// readRegionTable decodes the region table at the head of b, its offsets
// bounded by Jane's period.
func readRegionTable(b []byte) (*RegionTable, error) {
	c := NewCursor(b)
	return ReadRegionTable(&c, janePeriod)
}

func TestRegionTableRoundTrip(t *testing.T) {
	rt := janeTable(t)
	var buf bytes.Buffer
	if err := rt.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readRegionTable(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != rt.Len() {
		t.Fatalf("regions %d != %d", back.Len(), rt.Len())
	}
	if back.eps != rt.eps || back.NumSubTrajectories() != rt.NumSubTrajectories() {
		t.Errorf("metadata differs: eps %v/%v subs %d/%d",
			back.eps, rt.eps, back.NumSubTrajectories(), rt.NumSubTrajectories())
	}
	for i := 0; i < rt.Len(); i++ {
		a, b := rt.Region(RegionID(i)), back.Region(RegionID(i))
		if a.Offset != b.Offset || a.Index != b.Index || a.Support != b.Support {
			t.Errorf("region %d metadata differs: %+v vs %+v", i, a, b)
		}
		if a.Center != b.Center || a.MBR != b.MBR {
			t.Errorf("region %d geometry differs", i)
		}
		for j := 0; j < rt.NumSubTrajectories(); j++ {
			if a.Visits(j) != b.Visits(j) {
				t.Fatalf("region %d visitor %d differs", i, j)
			}
		}
	}
	// The per-offset index must be rebuilt.
	if len(back.AtOffset(1)) != len(rt.AtOffset(1)) {
		t.Error("byOffset index not rebuilt")
	}
}

func TestPatternsRoundTrip(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.2})
	if len(patterns) == 0 {
		t.Fatal("no patterns to serialize")
	}
	var buf bytes.Buffer
	if err := writePatterns(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	back, err := readPatterns(buf.Bytes(), rt)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(patterns) {
		t.Fatalf("patterns %d != %d", len(back), len(patterns))
	}
	for i := range patterns {
		if back[i].String() != patterns[i].String() {
			t.Errorf("pattern %d: %s != %s", i, back[i], patterns[i])
		}
		if back[i].Support != patterns[i].Support {
			t.Errorf("pattern %d support %d != %d", i, back[i].Support, patterns[i].Support)
		}
	}
	// Empty list round-trips too.
	buf.Reset()
	if err := writePatterns(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if back, err = readPatterns(buf.Bytes(), rt); err != nil || len(back) != 0 {
		t.Errorf("empty round trip: %v, %v", back, err)
	}
}

func TestReadRegionTableRejectsCorruption(t *testing.T) {
	rt := janeTable(t)
	var buf bytes.Buffer
	if err := rt.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Wrong magic.
	bad := append([]byte("XXXX"), full[4:]...)
	if _, err := readRegionTable(bad); err == nil {
		t.Error("wrong magic accepted")
	}
	// Truncations at every section boundary-ish depth.
	for _, cut := range []int{0, 3, 10, len(full) / 2, len(full) - 1} {
		if _, err := readRegionTable(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestReadPatternsRejectsBadIDs(t *testing.T) {
	rt := janeTable(t) // 5 regions
	// A pattern referencing region 99 must fail validation on read.
	bogus := []Pattern{{Premise: []RegionID{99}, Consequence: 3, Confidence: 0.5}}
	var buf bytes.Buffer
	if err := writePatterns(&buf, bogus); err != nil {
		t.Fatal(err)
	}
	if _, err := readPatterns(buf.Bytes(), rt); err == nil {
		t.Error("out-of-range premise id accepted")
	}
	bogus = []Pattern{{Premise: []RegionID{0}, Consequence: 42, Confidence: 0.5}}
	buf.Reset()
	if err := writePatterns(&buf, bogus); err != nil {
		t.Fatal(err)
	}
	if _, err := readPatterns(buf.Bytes(), rt); err == nil {
		t.Error("out-of-range consequence id accepted")
	}
}

func TestReadPatternsRejectsCorruption(t *testing.T) {
	rt := janeTable(t)
	patterns := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})
	var buf bytes.Buffer
	if err := writePatterns(&buf, patterns); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := readPatterns(full[:len(full)/2], rt); err == nil {
		t.Error("truncated pattern stream accepted")
	}
	bad := append([]byte("YYYY"), full[4:]...)
	if _, err := readPatterns(bad, rt); err == nil {
		t.Error("wrong magic accepted")
	}
}
