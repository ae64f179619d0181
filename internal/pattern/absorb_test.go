package pattern

import (
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

func TestAbsorbExtendsVisitors(t *testing.T) {
	rt := janeTable(t) // 20 sub-trajectories, 5 regions
	homeSupport := rt.Region(0).Support
	citySupport := rt.Region(1).Support

	// Two new days: both start at Home; day 0 goes Home->City->Work,
	// day 1 wanders off-pattern after Home.
	groups := []trajectory.Group{
		{Offset: 0, Points: []geom.Point{geom.Pt(101, 101), geom.Pt(102, 103)}},
		{Offset: 1, Points: []geom.Point{geom.Pt(2001, 2002), geom.Pt(7000, 7000)}},
		{Offset: 2, Points: []geom.Point{geom.Pt(4001, 4002), geom.Pt(7100, 7100)}},
	}
	if _, err := rt.AbsorbDetailed(groups); err != nil {
		t.Fatal(err)
	}
	if rt.NumSubTrajectories() != 22 {
		t.Fatalf("NumSubTrajectories = %d, want 22", rt.NumSubTrajectories())
	}
	if got := rt.Region(0).Support; got != homeSupport+2 {
		t.Errorf("Home support = %d, want %d", got, homeSupport+2)
	}
	if got := rt.Region(1).Support; got != citySupport+1 {
		t.Errorf("City support = %d, want %d", got, citySupport+1)
	}
	// The new visitors occupy positions 20 and 21.
	if !rt.Region(0).Visits(20) || !rt.Region(0).Visits(21) {
		t.Error("Home missing new visitors")
	}
	if !rt.Region(1).Visits(20) || rt.Region(1).Visits(21) {
		t.Error("City visitor bits wrong for new days")
	}
	// Off-pattern points matched nothing.
	if rt.Region(3).Visits(21) || rt.Region(4).Visits(21) {
		t.Error("wandering day absorbed into a region")
	}
}

func TestAbsorbThenMineUpdatesSupports(t *testing.T) {
	rt := janeTable(t)
	before := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})

	// Five new days that all follow Home -> City -> Work: the
	// City->Work confidence must rise.
	n := 5
	groups := make([]trajectory.Group, 3)
	for off := range groups {
		groups[off] = trajectory.Group{Offset: off, Points: make([]geom.Point, n)}
	}
	for j := 0; j < n; j++ {
		groups[0].Points[j] = geom.Pt(101, 102)
		groups[1].Points[j] = geom.Pt(2001, 2001)
		groups[2].Points[j] = geom.Pt(4002, 4001)
	}
	if _, err := rt.AbsorbDetailed(groups); err != nil {
		t.Fatal(err)
	}
	after := Mine(rt, Config{MinSupport: 2, MinConfidence: 0.3})

	conf := func(ps []Pattern, premise RegionID, cons RegionID) float64 {
		for _, p := range ps {
			if len(p.Premise) == 1 && p.Premise[0] == premise && p.Consequence == cons {
				return p.Confidence
			}
		}
		return -1
	}
	b, a := conf(before, 1, 3), conf(after, 1, 3) // City -> Work
	if b < 0 || a < 0 {
		t.Fatalf("City->Work missing: before %v after %v", b, a)
	}
	if a <= b {
		t.Errorf("City->Work confidence did not rise: %v -> %v", b, a)
	}
}

func TestAbsorbValidation(t *testing.T) {
	rt := janeTable(t)
	if _, err := rt.AbsorbDetailed(nil); err != nil {
		t.Errorf("empty absorb errored: %v", err)
	}
	bad := []trajectory.Group{
		{Offset: 0, Points: make([]geom.Point, 2)},
		{Offset: 1, Points: make([]geom.Point, 3)},
	}
	if _, err := rt.AbsorbDetailed(bad); err == nil {
		t.Error("ragged groups accepted")
	}
}
