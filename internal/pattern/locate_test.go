package pattern

import (
	"fmt"
	"math/rand"
	"testing"

	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// locateReference is the pre-index Locate: a full linear scan of the
// offset's regions, kept as the oracle the indexed implementation must
// match exactly.
func locateReference(rt *RegionTable, t int, p geom.Point) (*FrequentRegion, bool) {
	var best *FrequentRegion
	bestDist := rt.eps
	for _, fr := range rt.AtOffset(t) {
		if fr.MBR.Contains(p) {
			return fr, true
		}
		if d := fr.Center.Dist(p); d <= bestDist {
			best, bestDist = fr, d
		}
	}
	return best, best != nil
}

// clusteredGroups synthesizes groups whose points fall into several tight
// clusters per offset, so DBSCAN yields many regions per offset.
func clusteredGroups(rng *rand.Rand, offsets, clusters, perCluster int) []trajectory.Group {
	groups := make([]trajectory.Group, offsets)
	for t := range groups {
		g := trajectory.Group{Offset: t, Points: make([]geom.Point, clusters*perCluster)}
		for c := 0; c < clusters; c++ {
			cx, cy := rng.Float64()*10000, rng.Float64()*10000
			for m := 0; m < perCluster; m++ {
				g.Points[c*perCluster+m] = geom.Pt(cx+rng.Float64()*20-10, cy+rng.Float64()*20-10)
			}
		}
		groups[t] = g
	}
	return groups
}

func TestLocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	groups := clusteredGroups(rng, 12, 30, 6)
	rt := DiscoverRegions(groups, 30, 4)
	if rt.Len() == 0 {
		t.Fatal("no regions discovered")
	}
	checked, matched := 0, 0
	for q := 0; q < 5000; q++ {
		off := rng.Intn(12)
		var p geom.Point
		switch q % 3 {
		case 0: // uniform over the world: mostly misses
			p = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		case 1: // near a region center: containment or eps hits
			regions := rt.AtOffset(off)
			if len(regions) == 0 {
				continue
			}
			c := regions[rng.Intn(len(regions))].Center
			p = geom.Pt(c.X+rng.Float64()*80-40, c.Y+rng.Float64()*80-40)
		case 2: // exactly on a member-ish point: guaranteed containment
			regions := rt.AtOffset(off)
			if len(regions) == 0 {
				continue
			}
			mbr := regions[rng.Intn(len(regions))].MBR
			p = geom.Pt(mbr.Min.X+rng.Float64()*mbr.Width(), mbr.Min.Y+rng.Float64()*mbr.Height())
		}
		gotFR, gotOK := rt.Locate(off, p)
		wantFR, wantOK := locateReference(rt, off, p)
		if gotOK != wantOK || gotFR != wantFR {
			t.Fatalf("Locate(%d, %v) = %v,%v; reference %v,%v", off, p, gotFR, gotOK, wantFR, wantOK)
		}
		checked++
		if gotOK {
			matched++
		}
	}
	if matched == 0 || matched == checked {
		t.Fatalf("degenerate workload: %d/%d located", matched, checked)
	}
}

func TestLocateUnknownOffset(t *testing.T) {
	rt := DiscoverRegions(nil, 30, 4)
	if fr, ok := rt.Locate(5, geom.Pt(1, 2)); ok || fr != nil {
		t.Fatalf("empty table located %v", fr)
	}
}

// BenchmarkLocate compares the indexed Locate against the linear reference
// scan at growing regions-per-offset counts — the win the per-offset center
// index buys.
func BenchmarkLocate(b *testing.B) {
	for _, clusters := range []int{8, 32, 128} {
		rng := rand.New(rand.NewSource(3))
		groups := clusteredGroups(rng, 4, clusters, 6)
		rt := DiscoverRegions(groups, 30, 4)
		queries := make([]geom.Point, 512)
		for i := range queries {
			queries[i] = geom.Pt(rng.Float64()*10000, rng.Float64()*10000)
		}
		b.Run(fmt.Sprintf("indexed/%dclusters", clusters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				rt.Locate(i%4, q)
			}
		})
		b.Run(fmt.Sprintf("scan/%dclusters", clusters), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				locateReference(rt, i%4, q)
			}
		})
	}
}
