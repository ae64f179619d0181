package core

import (
	"errors"

	"hpm/internal/geom"
	"hpm/internal/hpa"
	"hpm/internal/markov"
	"hpm/internal/pattern"
	"hpm/internal/trajectory"
)

// The Markov answering path (NLPMM-style): a variable-order chain over
// the same frequent regions the pattern miner produces. The chain is the
// fold of the retained movement history over the current region table —
// every located observation appends a visit, and whenever the regions or
// the retained track change out from under that fold (retrain, Extend,
// trim), the owner of the track calls RebuildMarkov to re-establish the
// invariant. Prediction walks the chain's most probable successor
// region-to-region until the implied clock passes tq, escaping to
// shorter contexts when a long one is unknown, and declines (→ motion
// fallback) when no sufficiently supported context matches.

// markovWindow converts the sliding-window setting (HistoryWindow, in
// periods) into the chain's timestamp-domain decay window.
func markovWindow(p Params) int {
	if p.HistoryWindow <= 0 {
		return 0
	}
	return p.HistoryWindow * p.Period
}

// initMarkov creates the chain and attaches the engine's markov answering
// path. A negative MarkovOrder disables the path entirely; the model then
// behaves exactly as before the chain existed.
func (m *Model) initMarkov() {
	if m.params.MarkovOrder < 0 {
		return
	}
	m.chain = markov.New(markov.Config{
		MaxOrder: m.params.MarkovOrder,
		MinCount: m.params.MarkovMinCount,
		Window:   markovWindow(m.params),
		Period:   m.params.Period,
	})
	m.engine.SetMarkov(m.markovHook())
}

// foldMarkov seeds a fresh chain from the training sub-trajectories —
// the same leading-n window every other training stage consumes.
func (m *Model) foldMarkov(subs []trajectory.SubTrajectory) {
	if m.chain == nil {
		return
	}
	n := m.params.SubTrajectories
	if n <= 0 || n > len(subs) {
		n = len(subs)
	}
	for _, sub := range subs[:n] {
		base := sub.Index * m.params.Period
		for off, pt := range sub.Points {
			m.MarkovObserve(base+off, pt)
		}
	}
}

// MarkovEnabled reports whether the chain path is attached.
func (m *Model) MarkovEnabled() bool { return m.chain != nil }

// MarkovObserve folds one acknowledged observation into the chain: the
// point is located against the frequent-region table at its period
// offset and, when it falls inside a region, recorded as a chain visit.
// Points outside every region leave the chain untouched. Callers must
// serialize MarkovObserve with Extend and RebuildMarkov — the same
// writer-side discipline the engine's own mutators require.
func (m *Model) MarkovObserve(t int, p geom.Point) {
	if m.chain == nil {
		return
	}
	if fr, ok := m.regions.Locate(coreMod(t, m.params.Period), p); ok {
		m.chain.Observe(t, uint32(fr.ID))
	}
}

// RebuildMarkov resets the chain and re-folds a retained track whose
// first point sits at absolute time base. Owners of the track call it
// after anything that invalidates the incremental fold: a model swap, an
// Extend that re-shaped the region table, or a history trim.
func (m *Model) RebuildMarkov(base int, pts []geom.Point) {
	if m.chain == nil {
		return
	}
	m.chain.Reset()
	for i, p := range pts {
		m.MarkovObserve(base+i, p)
	}
}

// MarkovStats returns the chain's size counters; ok is false when the
// path is disabled.
func (m *Model) MarkovStats() (markov.Stats, bool) {
	if m.chain == nil {
		return markov.Stats{}, false
	}
	return m.chain.Stats(), true
}

// EncodeMarkov serializes the chain deterministically for snapshotting;
// nil when the path is disabled.
func (m *Model) EncodeMarkov() []byte {
	if m.chain == nil {
		return nil
	}
	return m.chain.Encode()
}

// LoadMarkov replaces the chain with a previously encoded one. It fails
// when the path is disabled or the stored chain was built under a
// different configuration — callers then fall back to RebuildMarkov.
// Call only while no queries are in flight (load/recovery time).
func (m *Model) LoadMarkov(data []byte) error {
	if m.chain == nil {
		return errors.New("core: markov path disabled")
	}
	c, err := markov.Decode(data)
	if err != nil {
		return err
	}
	if c.Config() != m.chain.Config() {
		return errors.New("core: markov chain config mismatch")
	}
	m.chain = c
	return nil
}

// markovHook adapts the chain to the engine's answering-path interface:
// recent movements in, one region-center prediction out.
func (m *Model) markovHook() hpa.MarkovHook {
	return func(recent []trajectory.TimedPoint, tq int) (hpa.Prediction, bool) {
		ch := m.chain
		if ch == nil || len(recent) == 0 {
			return hpa.Prediction{}, false
		}
		cfg := ch.Config()
		// Rebuild the context the chain itself would hold after observing
		// this suffix: the last MaxOrder located visits, scanning backwards
		// and stopping at any gap of a full period between located points
		// (the chain's own staleness reset). Points outside every region
		// are transparent, exactly as in MarkovObserve.
		var buf [markov.MaxSupportedOrder]uint32
		k := 0
		lastT := 0
		for i := len(recent) - 1; i >= 0 && k < cfg.MaxOrder; i-- {
			tp := recent[i]
			if k > 0 && lastT-tp.T >= cfg.Period {
				break
			}
			fr, ok := m.regions.Locate(coreMod(tp.T, cfg.Period), tp.Loc)
			if !ok {
				continue
			}
			buf[k] = uint32(fr.ID)
			lastT = tp.T
			k++
		}
		if k == 0 {
			return hpa.Prediction{}, false
		}
		seq := buf[:k]
		for i, j := 0, len(seq)-1; i < j; i, j = i+1, j-1 {
			seq[i], seq[j] = seq[j], seq[i]
		}
		// The walk's implied clock starts at the real current time — the
		// last recent point, located or not — so every walked step lies
		// strictly in the future and the walk terminates at or past tq.
		tc := recent[len(recent)-1].T
		res, ok := ch.Predict(seq, tc, tq)
		if !ok {
			return hpa.Prediction{}, false
		}
		id := pattern.RegionID(res.Region)
		if int(id) >= m.regions.Len() {
			// A stale chain entry pointing past the current table (possible
			// only between a region change and its rebuild) never answers.
			return hpa.Prediction{}, false
		}
		fr := m.regions.Region(id)
		return hpa.Prediction{
			Location:          fr.Center,
			Score:             res.Prob,
			Confidence:        res.Prob,
			PatternRef:        -1,
			Source:            hpa.SourceMarkov,
			Path:              hpa.PathMarkov,
			Extent:            fr.MBR,
			ConsequenceOffset: fr.Offset,
		}, true
	}
}

func coreMod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}
