// Package pattern implements §IV of the paper: trajectory-pattern discovery.
//
// The discovery pipeline has two stages. First, DBSCAN finds the frequent
// regions R_t^j — dense clusters inside each time-offset group G_t — where
// Eps and MinPts play the role of the support threshold in frequent-itemset
// mining. Second, a modified Apriori derives trajectory patterns
//
//	R_{t1}^{j1} ∧ ... ∧ R_{tm}^{jm} --c--> R_{tn}^{jn},  t1 < ... < tm < tn
//
// from the regions, applying the paper's two pruning rules: patterns must be
// monotonically increasing in time offset, and consequences hold exactly one
// region (Theorem 1 shows multi-region consequences are never selected).
//
// Internally the miner works on a vertical representation: each frequent
// region carries a bitmap of the sub-trajectories that visit it, so the
// support of any candidate itemset is the popcount of an AND of bitmaps.
// One depth-first walk over those bitmaps enumerates the frequent
// itemsets, carrying each premise's AND down to its extensions: Mine reads
// its rules from the walk, and the incremental miner (IncrementalMiner,
// which keeps the rules current as sub-trajectories arrive and expire)
// its seed.
package pattern

import (
	"fmt"
	"slices"
	"sort"

	"hpm/internal/bitkey"
	"hpm/internal/cluster"
	"hpm/internal/geom"
	"hpm/internal/trajectory"
)

// RegionID identifies a frequent region. IDs are dense, assigned in
// ascending (time offset, cluster index) order, which makes the region-key
// hash of §V-A (id -> bit 2^id) honour Property 1: a higher bit position in
// a premise key always means a time offset closer to the consequence.
type RegionID int32

// FrequentRegion is a dense cluster R_t^j of the object's locations at time
// offset t: a place the object appears at that offset often enough to
// matter.
type FrequentRegion struct {
	ID      RegionID
	Offset  int        // time offset t within the period
	Index   int        // j: ordinal among the regions at this offset
	Center  geom.Point // centroid of the member locations
	MBR     geom.Rect  // bounding box of the member locations
	Support int        // number of sub-trajectories visiting the region

	// visitors has one bit per sub-trajectory (1-based position j+1 for
	// sub-trajectory j); it is the vertical mining representation.
	visitors bitkey.Key
}

// RegionTable is the region-key table of §V-A: every frequent region sorted
// by time offset with a dense id, plus the per-offset index needed to map a
// query location back to the region it falls in.
type RegionTable struct {
	regions []*FrequentRegion
	// byOffset lists each offset's regions in id order, indexed by offset:
	// every offset is a period's, so the slice is as long as the period at
	// most (decoders refuse any other).
	byOffset [][]*FrequentRegion
	// locate holds the per-offset query index, indexed like byOffset:
	// regions sorted by center X with the scan radius that makes an
	// early-exit window search exact.
	locate  []offsetIndex
	eps     float64
	numSubs int
}

// DiscoverRegions runs DBSCAN over every time-offset group and assembles
// the region table. groups must all have the same number of points (one per
// sub-trajectory), as produced by trajectory.Groups.
func DiscoverRegions(groups []trajectory.Group, eps float64, minPts int) *RegionTable {
	rt := &RegionTable{eps: eps}
	if len(groups) == 0 {
		return rt
	}
	rt.numSubs = len(groups[0].Points)
	for _, g := range groups {
		if len(g.Points) != rt.numSubs {
			panic(fmt.Sprintf("pattern: group %d has %d points, want %d", g.Offset, len(g.Points), rt.numSubs))
		}
	}
	for _, g := range groups {
		res := cluster.DBSCAN(g.Points, eps, minPts)
		for c := 0; c < res.NumClusters; c++ {
			members := res.Members(c)
			pts := make([]geom.Point, len(members))
			visitors := bitkey.New(rt.numSubs)
			for i, j := range members {
				pts[i] = g.Points[j]
				visitors.Set(j + 1)
			}
			rt.regions = append(rt.regions, &FrequentRegion{
				ID:       RegionID(len(rt.regions)),
				Offset:   g.Offset,
				Index:    c,
				Center:   geom.Centroid(pts),
				MBR:      geom.RectFromPoints(pts),
				Support:  len(members),
				visitors: visitors,
			})
		}
	}
	// trajectory.Groups emits offsets in ascending order, so ids are already
	// sorted by (offset, index); guard against future callers that are not.
	if !sort.SliceIsSorted(rt.regions, func(a, b int) bool {
		ra, rb := rt.regions[a], rt.regions[b]
		if ra.Offset != rb.Offset {
			return ra.Offset < rb.Offset
		}
		return ra.Index < rb.Index
	}) {
		sort.Slice(rt.regions, func(a, b int) bool {
			ra, rb := rt.regions[a], rt.regions[b]
			if ra.Offset != rb.Offset {
				return ra.Offset < rb.Offset
			}
			return ra.Index < rb.Index
		})
		for i, fr := range rt.regions {
			fr.ID = RegionID(i)
		}
	}
	rt.buildIndex()
	return rt
}

// Len returns the number of frequent regions (the premise-key length l_p).
func (rt *RegionTable) Len() int { return len(rt.regions) }

// NumSubTrajectories returns how many sub-trajectories the table was mined
// from.
func (rt *RegionTable) NumSubTrajectories() int { return rt.numSubs }

// Region returns the frequent region with the given id. It panics on an
// unknown id, as an index out of range.
func (rt *RegionTable) Region(id RegionID) *FrequentRegion { return rt.regions[id] }

// offsetIndex accelerates Locate at one time offset: the offset's regions
// sorted by center X, plus the largest horizontal reach any of them has —
// the distance from a region's center beyond which a query point can match
// it neither by MBR containment nor by the Eps center rule. A query then
// scans only the X-window [p.X - maxReach, p.X + maxReach] of the sorted
// slice instead of every region at the offset.
type offsetIndex struct {
	byX      []*FrequentRegion
	maxReach float64
}

// reachX returns how far (along X) a matching query point can lie from the
// region's center: inside the MBR (whose centroid need not be its middle)
// or within eps of the center.
func reachX(fr *FrequentRegion, eps float64) float64 {
	r := fr.Center.X - fr.MBR.Min.X
	if d := fr.MBR.Max.X - fr.Center.X; d > r {
		r = d
	}
	if eps > r {
		r = eps
	}
	return r
}

// buildIndex builds byOffset and the per-offset query index from the
// regions, both as long as the highest offset needs: once at discovery or
// decode. AbsorbDetailed only widens visitor bitmaps and supports, never
// geometry, so the index stays valid afterwards — AppendRegion, the one
// mutation that does add geometry, rebuilds its offset's entry alone. Each
// offset's lists are carved from one slab, capped so AppendRegion's append
// to one offset cannot write into the next.
func (rt *RegionTable) buildIndex() {
	top := -1
	for _, fr := range rt.regions {
		top = max(top, fr.Offset)
	}
	rt.byOffset = make([][]*FrequentRegion, top+1)
	rt.locate = make([]offsetIndex, top+1)
	ends := make([]int, top+2) // ends[off+1]: where offset off's run ends
	for _, fr := range rt.regions {
		ends[fr.Offset+1]++
	}
	for off := range rt.byOffset {
		ends[off+1] += ends[off]
	}
	slab := make([]*FrequentRegion, 2*len(rt.regions))
	byX := slab[len(rt.regions):]
	for off := range rt.byOffset {
		lo, hi := ends[off], ends[off+1]
		rt.byOffset[off] = slab[lo:lo:hi]
		rt.locate[off].byX = byX[lo:lo:hi]
	}
	for _, fr := range rt.regions {
		rt.byOffset[fr.Offset] = append(rt.byOffset[fr.Offset], fr)
	}
	for off := range rt.byOffset {
		rt.indexOffset(off, append(rt.locate[off].byX, rt.byOffset[off]...))
	}
}

// indexOffset makes byX, which holds offset off's regions, the offset's
// locate entry: sorted by center X, with the widest reach among them.
func (rt *RegionTable) indexOffset(off int, byX []*FrequentRegion) {
	sort.SliceStable(byX, func(a, b int) bool {
		return byX[a].Center.X < byX[b].Center.X
	})
	ix := offsetIndex{byX: byX}
	for _, fr := range byX {
		if r := reachX(fr, rt.eps); r > ix.maxReach {
			ix.maxReach = r
		}
	}
	rt.locate[off] = ix
}

// Locate maps a location observed at time offset t to the frequent region
// it belongs to: first by bounding-box containment (ties to the lowest
// region index, matching scan order), then — to tolerate query noise — the
// nearest region whose center lies within Eps. The boolean is false when no
// region at that offset matches.
//
// The scan is bounded: regions are indexed by center X per offset, so only
// those whose horizontal reach can cover p are examined, instead of every
// region at the offset.
func (rt *RegionTable) Locate(t int, p geom.Point) (*FrequentRegion, bool) {
	if t < 0 || t >= len(rt.locate) {
		return nil, false
	}
	ix := &rt.locate[t]
	lo := sort.Search(len(ix.byX), func(i int) bool {
		return ix.byX[i].Center.X >= p.X-ix.maxReach
	})
	var contain *FrequentRegion
	var best *FrequentRegion
	bestDist := rt.eps
	for i := lo; i < len(ix.byX); i++ {
		fr := ix.byX[i]
		if fr.Center.X-p.X > ix.maxReach {
			break
		}
		if fr.MBR.Contains(p) {
			if contain == nil || fr.Index < contain.Index {
				contain = fr
			}
			continue
		}
		if contain != nil {
			continue
		}
		if d := fr.Center.Dist(p); d < bestDist || (d == bestDist && (best == nil || fr.Index > best.Index)) {
			best, bestDist = fr, d
		}
	}
	if contain != nil {
		return contain, true
	}
	return best, best != nil
}

// UnmatchedPoint is a new observation no frequent region claimed during
// AbsorbDetailed. Buffered per offset, enough of them in one dense spot
// mint a new region (§V-B dynamic data extended beyond the paper's fixed
// table).
type UnmatchedPoint struct {
	Offset int // time offset within the period
	Sub    int // global sub-trajectory index (visitor bit - 1)
	P      geom.Point
}

// AbsorbResult reports what AbsorbDetailed did with a batch.
type AbsorbResult struct {
	// Chains holds, per new sub-trajectory, the regions it visits in
	// ascending offset order — the transactions delta-Apriori consumes.
	Chains [][]RegionID
	// Unmatched are the points no region claimed, in (offset, sub) order.
	// Before incremental training these were dropped silently.
	Unmatched []UnmatchedPoint
}

// AbsorbDetailed extends the table with newly arrived sub-trajectories
// (§V-B dynamic data): each new location is assigned to the frequent region
// it falls in (by Locate), widening every region's visitor bitmap and
// support accordingly. It reports what incremental training needs: the
// region chain of every new sub-trajectory and the points no region
// claimed.
//
// groups must cover the same offsets as the original discovery, in
// ascending offset order, with one point per new sub-trajectory.
func (rt *RegionTable) AbsorbDetailed(groups []trajectory.Group) (AbsorbResult, error) {
	var res AbsorbResult
	if len(groups) == 0 {
		return res, nil
	}
	added := len(groups[0].Points)
	for _, g := range groups {
		if len(g.Points) != added {
			return res, fmt.Errorf("pattern: Absorb group %d has %d points, want %d", g.Offset, len(g.Points), added)
		}
	}
	newN := rt.numSubs + added
	for _, fr := range rt.regions {
		fr.visitors = fr.visitors.Grown(newN)
	}
	res.Chains = make([][]RegionID, added)
	for _, g := range groups {
		for j, p := range g.Points {
			fr, ok := rt.Locate(g.Offset, p)
			if !ok {
				res.Unmatched = append(res.Unmatched, UnmatchedPoint{Offset: g.Offset, Sub: rt.numSubs + j, P: p})
				continue
			}
			pos := rt.numSubs + j + 1
			if !fr.visitors.Bit(pos) {
				fr.visitors.Set(pos)
				fr.Support++
				res.Chains[j] = append(res.Chains[j], fr.ID)
			}
		}
	}
	rt.numSubs = newN
	return res, nil
}

// ChainOf reconstructs the region chain of sub-trajectory j — the regions
// whose visitor bitmaps carry j's bit — in ascending (offset, index)
// order. Minted regions sit out of id order, so the result is sorted
// explicitly rather than by id.
func (rt *RegionTable) ChainOf(j int) []RegionID {
	var chain []*FrequentRegion
	for _, fr := range rt.regions {
		if fr.visitors.Bit(j + 1) {
			chain = append(chain, fr)
		}
	}
	sort.SliceStable(chain, func(a, b int) bool {
		if chain[a].Offset != chain[b].Offset {
			return chain[a].Offset < chain[b].Offset
		}
		return chain[a].Index < chain[b].Index
	})
	ids := make([]RegionID, len(chain))
	for i, fr := range chain {
		ids[i] = fr.ID
	}
	return ids
}

// ClearSub retires sub-trajectory j: its visitor bit leaves every region,
// shrinking supports. The bit position stays allocated — bitmap widths
// only grow — so callers track which positions are retired.
func (rt *RegionTable) ClearSub(j int) {
	for _, fr := range rt.regions {
		if fr.visitors.Bit(j + 1) {
			fr.visitors.Clear(j + 1)
			fr.Support--
		}
	}
}

// AppendRegion mints a frequent region discovered after the initial
// build, from buffered unmatched points that turned out to be dense. The
// new region takes the next dense id — appended, so ids are no longer
// globally sorted by offset — and the next ordinal index at its offset.
// visitorSubs lists the sub-trajectory indices whose points form the
// region (duplicates collapse). The offset's locate index is rebuilt so
// later points can land in the new region.
func (rt *RegionTable) AppendRegion(offset int, pts []geom.Point, visitorSubs []int) *FrequentRegion {
	visitors := bitkey.New(rt.numSubs)
	support := 0
	for _, j := range visitorSubs {
		if !visitors.Bit(j + 1) {
			visitors.Set(j + 1)
			support++
		}
	}
	if offset >= len(rt.byOffset) {
		rt.byOffset = append(rt.byOffset, make([][]*FrequentRegion, offset+1-len(rt.byOffset))...)
		rt.locate = append(rt.locate, make([]offsetIndex, offset+1-len(rt.locate))...)
	}
	fr := &FrequentRegion{
		ID:       RegionID(len(rt.regions)),
		Offset:   offset,
		Index:    len(rt.byOffset[offset]),
		Center:   geom.Centroid(pts),
		MBR:      geom.RectFromPoints(pts),
		Support:  support,
		visitors: visitors,
	}
	rt.regions = append(rt.regions, fr)
	rt.byOffset[offset] = append(rt.byOffset[offset], fr)
	rt.indexOffset(offset, slices.Clone(rt.byOffset[offset]))
	return fr
}

// PremiseKey returns the OR of the region keys of ids, the premise key of a
// trajectory pattern whose premise visits those regions.
func (rt *RegionTable) PremiseKey(ids []RegionID) bitkey.Key {
	k := bitkey.New(len(rt.regions))
	for _, id := range ids {
		k.Set(int(id) + 1) // panics on an id outside the table
	}
	return k
}
