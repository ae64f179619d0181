package pattern

import (
	"fmt"
	"strings"

	"hpm/internal/bitkey"
)

// Readers of a region table and of a rule that only tests call.

// String implements fmt.Stringer using the paper's R_t^j notation.
func (fr *FrequentRegion) String() string {
	return fmt.Sprintf("R_%d^%d", fr.Offset, fr.Index)
}

// keyBits renders a key as a binary string, most significant bit first,
// matching the paper's tables (e.g. "00011").
func keyBits(k bitkey.Key) string {
	var sb strings.Builder
	for p := k.Len(); p >= 1; p-- {
		if k.Bit(p) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Regions returns all frequent regions ordered by id. Callers must not
// mutate the slice.
func (rt *RegionTable) Regions() []*FrequentRegion { return rt.regions }

// AtOffset returns the frequent regions at time offset t (possibly none).
func (rt *RegionTable) AtOffset(t int) []*FrequentRegion {
	if t < 0 || t >= len(rt.byOffset) {
		return nil
	}
	return rt.byOffset[t]
}

// Visits reports whether sub-trajectory j visits this region.
func (fr *FrequentRegion) Visits(j int) bool { return fr.visitors.Bit(j + 1) }

// RegionKey returns the §V-A region key of a frequent region: an l_p-bit
// key with the single bit 2^id set (the paper's hash function).
func (rt *RegionTable) RegionKey(id RegionID) bitkey.Key {
	rt.Region(id) // bounds check
	k := bitkey.New(len(rt.regions))
	k.Set(int(id) + 1)
	return k
}

// String renders the pattern in the paper's notation, e.g.
// "R_0^0 ^ R_1^0 --0.50--> R_2^0" (region names require the table).
func (p Pattern) String() string {
	var sb strings.Builder
	for i, id := range p.Premise {
		if i > 0 {
			sb.WriteString(" ^ ")
		}
		fmt.Fprintf(&sb, "r%d", id)
	}
	fmt.Fprintf(&sb, " --%.2f--> r%d", p.Confidence, p.Consequence)
	return sb.String()
}
