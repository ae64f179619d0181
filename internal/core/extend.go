package core

import (
	"fmt"
	"sort"

	"hpm/internal/cluster"
	"hpm/internal/geom"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// Incremental training (§V-B dynamic data, extended). Extend absorbs new
// sub-trajectories with cost proportional to the new data: the delta-Apriori
// miner re-derives only the itemsets the new days touch, and the engine
// applies the resulting promotions, demotions and confidence updates in
// place. Beyond the paper's insert-only scheme this also
//
//   - mints new frequent regions from buffered outlier points (unless
//     Params.DisableRegionDiscovery), growing the key space in place, and
//   - retires sub-trajectories older than Params.HistoryWindow periods, so
//     supports track a sliding window instead of all history.
//
// A periodic batch rebuild (Train from scratch) remains the backstop for
// index packing quality; the mined rule set itself stays exactly equivalent
// to batch mining when region discovery is off, a property the equivalence
// tests pin on every dataset.

// ExtendResult reports what an incremental update changed.
type ExtendResult struct {
	// NewPatterns is how many newly promoted patterns were inserted into
	// the TPT.
	NewPatterns int
	// UpdatedPatterns is how many indexed patterns had their support or
	// confidence rewritten in place.
	UpdatedPatterns int
	// RetiredPatterns is how many patterns fell below minimum support or
	// confidence and were removed from the index.
	RetiredPatterns int
	// UnmatchedPoints is how many new points no frequent region matched.
	// They buffer toward region discovery unless that is disabled.
	UnmatchedPoints int
	// NewRegions is how many frequent regions were minted from buffered
	// outliers this update.
	NewRegions int
	// RetiredSubTrajectories is how many old periods the history window
	// expired this update.
	RetiredSubTrajectories int
	// TotalPatterns is the live pattern count after the update.
	TotalPatterns int
	// Reevaluated is how many tracked itemsets the update touched and
	// re-derived a rule for: the work done, which the counts above (what
	// came of it) do not show.
	Reevaluated int
}

// Extend absorbs newly accumulated sub-trajectories without retraining.
// The new days are assigned to the existing frequent regions, and only
// the patterns whose support those days change are re-evaluated — cost is
// proportional to the new data, not the total history. Points matching no
// region buffer per offset; once a buffer can support a cluster, a
// localized DBSCAN over just the buffer mints new frequent regions (gate
// with Params.DisableRegionDiscovery to keep the paper's fixed-region
// behavior). With Params.HistoryWindow set, sub-trajectories older than
// the window are retired first, so supports and rules reflect a sliding
// window of recent behavior.
func (m *Model) Extend(subs []trajectory.SubTrajectory) (ExtendResult, error) {
	var res ExtendResult
	if len(subs) == 0 {
		res.TotalPatterns = m.engine.LivePatterns()
		return res, nil
	}
	for _, s := range subs {
		if len(s.Points) != m.params.Period {
			return res, fmt.Errorf("core: new sub-trajectory length %d != period %d", len(s.Points), m.params.Period)
		}
	}
	m.ensureMiner()

	// Retire expired periods before absorbing, so the new days' deltas
	// read supports that no longer include them.
	retired := m.retireExpired(len(subs), &res)

	absorbed, err := m.regions.AbsorbDetailed(trajectory.Groups(subs, 0))
	if err != nil {
		return res, err
	}
	res.UnmatchedPoints = len(absorbed.Unmatched)

	m.applyDelta(m.miner.Update(absorbed.Chains, retired), &res)

	if !m.params.DisableRegionDiscovery {
		m.bufferOutliers(absorbed.Unmatched)
		m.mintRegions(&res)
	}

	m.stats.Rules = m.engine.LivePatterns()
	res.TotalPatterns = m.engine.LivePatterns()
	return res, nil
}

// ensureMiner builds the incremental miner on first use by replaying every
// live sub-trajectory's region chain — the same code path increments take,
// so the seeded state matches batch mining exactly — and reconciles the
// engine's live set against it by lookup: every live ref is bound to the
// miner's rule of the same identity, a ref that finds none is removed, and
// the rules left unbound are inserted. After batch training or a clean
// load nothing is removed or inserted; the reconcile only repairs drift if
// the two ever diverge.
func (m *Model) ensureMiner() {
	if m.miner != nil {
		return
	}
	m.miner = pattern.NewIncrementalMiner(m.regions, m.params.Mining, m.engine.LivePatterns())
	var chains [][]pattern.RegionID
	for j := 0; j < m.regions.NumSubTrajectories(); j++ {
		if ch := m.regions.ChainOf(j); len(ch) > 0 {
			chains = append(chains, ch)
		}
	}
	seeded := m.miner.Update(chains, nil)

	// Inserting appends refs; only these predate the reconcile.
	for ref, refs := 0, m.engine.Refs(); ref < refs; ref++ {
		if !m.engine.IsLive(ref) {
			continue
		}
		cur := m.engine.Pattern(ref)
		conf, support, ok := m.miner.Bind(pattern.PatternIdentity(cur), ref)
		switch {
		case !ok:
			m.engine.RemovePattern(ref)
		case cur.Confidence != conf || cur.Support != support:
			m.engine.UpdatePattern(ref, conf, support)
		}
	}
	var missing []int32
	for _, s := range seeded.Added {
		if ref, _, _ := m.miner.Rule(s); ref == pattern.NoTag {
			missing = append(missing, s)
		}
	}
	m.insert(missing)
}

// MinerItemsets returns how many frequent itemsets the incremental miner
// tracks; ok is false while the model has none (no Extend since it was
// trained or loaded).
func (m *Model) MinerItemsets() (n int, ok bool) {
	if m.miner == nil {
		return 0, false
	}
	return m.miner.TrackedItemsets(), true
}

// retireExpired advances the sliding-window watermark so that after the
// adding new sub-trajectories, at most HistoryWindow periods stay live.
// Returns the retired days' region chains for the miner to decrement.
func (m *Model) retireExpired(adding int, res *ExtendResult) [][]pattern.RegionID {
	w := m.params.HistoryWindow
	if w <= 0 {
		return nil
	}
	have := m.regions.NumSubTrajectories()
	keepFrom := have + adding - w
	if keepFrom > have {
		// Never retire the days being added this call.
		keepFrom = have
	}
	var retired [][]pattern.RegionID
	for m.retiredBelow < keepFrom {
		j := m.retiredBelow
		if ch := m.regions.ChainOf(j); len(ch) > 0 {
			retired = append(retired, ch)
			m.regions.ClearSub(j)
		}
		m.dropOutliers(j)
		m.retiredBelow++
		res.RetiredSubTrajectories++
	}
	return retired
}

// applyDelta translates a miner delta into engine mutations.
func (m *Model) applyDelta(d pattern.Delta, res *ExtendResult) {
	res.Reevaluated += d.Reevaluated
	// Removed before Added: a pattern demoted and re-promoted in the same
	// update appears in both, and the insert must land after the old entry
	// is gone.
	for _, r := range d.Removed {
		if m.engine.RemovePattern(int(r.Tag)) {
			res.RetiredPatterns++
		}
	}
	m.insert(d.Added)
	res.NewPatterns += len(d.Added)
	for _, s := range d.Updated {
		if m.engine.UpdatePattern(m.miner.Rule(s)) {
			res.UpdatedPatterns++
		}
	}
}

// insert indexes the miner's rules in the given slots, in identity order,
// and tells the miner their refs.
func (m *Model) insert(slots []int32) {
	for i, ref := range m.engine.InsertPatterns(m.miner.Rules(slots)) {
		m.miner.SetTag(slots[i], ref)
	}
}

// maxOutlierBuffer bounds one offset's outlier buffer to this many times
// MinPts. Without a bound, never-clustering noise accumulates forever and
// the per-Extend discovery scan grows with total history — exactly what
// incremental training exists to avoid. Oldest points are evicted first:
// a haunt visited often enough to deserve a region keeps refilling the
// buffer with fresh points, while stale noise ages out.
const maxOutlierBuffer = 8

func (m *Model) bufferOutliers(pts []pattern.UnmatchedPoint) {
	if len(pts) == 0 {
		return
	}
	if m.outliers == nil {
		m.outliers = make(map[int][]pattern.UnmatchedPoint)
		m.dirty = make(map[int]bool)
	}
	limit := maxOutlierBuffer * m.params.MinPts
	for _, up := range pts {
		buf := append(m.outliers[up.Offset], up)
		if len(buf) > limit {
			buf = append(buf[:0], buf[len(buf)-limit:]...)
		}
		m.outliers[up.Offset] = buf
		m.dirty[up.Offset] = true
	}
}

// dropOutliers forgets buffered points of a retired sub-trajectory, so a
// region minted later never counts an expired visitor.
func (m *Model) dropOutliers(sub int) {
	for off, buf := range m.outliers {
		kept := buf[:0]
		for _, up := range buf {
			if up.Sub != sub {
				kept = append(kept, up)
			}
		}
		if len(kept) == 0 {
			delete(m.outliers, off)
		} else {
			m.outliers[off] = kept
		}
	}
}

// mintRegions runs DBSCAN over each outlier buffer that gained points this
// update and could support a cluster — buffers are capped and only dirty
// offsets are scanned, so discovery cost is independent of history size —
// and registers every cluster found as a new frequent region: visitor bits
// set, key space grown, and the itemsets through the new region absorbed
// into the miner and index.
func (m *Model) mintRegions(res *ExtendResult) {
	if len(m.dirty) == 0 {
		return
	}
	offs := make([]int, 0, len(m.dirty))
	for off := range m.dirty {
		offs = append(offs, off)
		delete(m.dirty, off)
	}
	sort.Ints(offs)
	for _, off := range offs {
		buf := m.outliers[off]
		if len(buf) < m.params.MinPts {
			continue
		}
		pts := make([]geom.Point, len(buf))
		for i, up := range buf {
			pts[i] = up.P
		}
		cl := cluster.DBSCAN(pts, m.params.Eps, m.params.MinPts)
		if cl.NumClusters == 0 {
			continue
		}
		minted := make([]bool, len(buf))
		for c := 0; c < cl.NumClusters; c++ {
			members := cl.Members(c)
			mPts := make([]geom.Point, len(members))
			mSubs := make([]int, len(members))
			for i, idx := range members {
				mPts[i] = buf[idx].P
				mSubs[i] = buf[idx].Sub
				minted[idx] = true
			}
			fr := m.regions.AppendRegion(off, mPts, mSubs)
			res.NewRegions++
			// The region table widened; grow the index's keys even if no
			// pattern ends up promoted, or the next query's wider key
			// would mismatch the tree.
			m.engine.SyncKeyWidths()
			// Replay the visitors' full chains: only itemsets through the
			// new region change, and AbsorbMinted enumerates just those.
			var chains [][]pattern.RegionID
			replayed := make(map[int]bool, len(mSubs))
			for _, j := range mSubs {
				if replayed[j] {
					continue
				}
				replayed[j] = true
				if ch := m.regions.ChainOf(j); len(ch) > 0 {
					chains = append(chains, ch)
				}
			}
			m.applyDelta(m.miner.AbsorbMinted(fr.ID, chains), res)
		}
		// Clustered points leave the buffer; noise stays for later days.
		kept := buf[:0]
		for i, up := range buf {
			if !minted[i] {
				kept = append(kept, up)
			}
		}
		if len(kept) == 0 {
			delete(m.outliers, off)
		} else {
			m.outliers[off] = kept
		}
	}
}
