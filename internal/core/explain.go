package core

import (
	"fmt"
	"strings"

	"hpm/internal/geom"
	"hpm/internal/hpa"
)

// RegionInfo describes one frequent region in user terms.
type RegionInfo struct {
	Offset  int        // time offset within the period
	Index   int        // ordinal among the regions at this offset
	Center  geom.Point // centroid of the region
	Extent  geom.Rect  // bounding box of the region
	Support int        // sub-trajectories that visit it
}

// Explanation unpacks the trajectory pattern behind a prediction: which
// frequent regions the rule's premise expects the object to have visited,
// where the rule says it goes, and with what confidence.
type Explanation struct {
	// Rule renders the pattern in the paper's notation, e.g.
	// "R_10^0 ∧ R_12^1 --0.80--> R_40^0".
	Rule        string
	Premise     []RegionInfo
	Consequence RegionInfo
	Confidence  float64
	Support     int
}

// Explain unpacks the pattern behind a prediction. It returns false for
// motion-function predictions (nothing rule-shaped to explain) and for
// predictions from a different model.
func (m *Model) Explain(pred hpa.Prediction) (Explanation, bool) {
	if pred.Source != hpa.SourcePattern ||
		pred.PatternRef < 0 || pred.PatternRef >= m.engine.Refs() {
		return Explanation{}, false
	}
	p := m.engine.Pattern(pred.PatternRef)

	var sb strings.Builder
	ex := Explanation{Confidence: p.Confidence, Support: p.Support}
	for i, id := range p.Premise {
		fr := m.regions.Region(id)
		ex.Premise = append(ex.Premise, RegionInfo{
			Offset: fr.Offset, Index: fr.Index,
			Center: fr.Center, Extent: fr.MBR, Support: fr.Support,
		})
		if i > 0 {
			sb.WriteString(" ∧ ")
		}
		fmt.Fprintf(&sb, "R_%d^%d", fr.Offset, fr.Index)
	}
	cons := m.regions.Region(p.Consequence)
	ex.Consequence = RegionInfo{
		Offset: cons.Offset, Index: cons.Index,
		Center: cons.Center, Extent: cons.MBR, Support: cons.Support,
	}
	fmt.Fprintf(&sb, " --%.2f--> R_%d^%d", p.Confidence, cons.Offset, cons.Index)
	ex.Rule = sb.String()
	return ex, true
}
