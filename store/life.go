package store

// life is an object's model-update policy and the state it reads: untrained
// until MinTrainPeriods have completed, then one train, then an Extend over
// the periods completed since the model last learned, each followed by the
// retention trim. Whether the object is trained is its predictor, which the
// store passes in. An event that calls for work answers with the one action
// the store must run. life takes no lock and does no I/O: the store calls it
// under the object's write lock and executes what it returns (advance,
// train). Nothing else writes these fields.
type life struct {
	// base is the absolute timestamp of track[0]. It stays 0 until the
	// retention trim cuts the track's head; from then on every externally
	// visible timestamp — WAL offsets, query windows, eval scoring, Now — is
	// base + track index. It stays period-aligned, so training windows stay
	// in phase.
	base int
	// modeled is how many leading periods the model has seen.
	modeled int
	// failedAt is the completed-period count the last failed train covered:
	// the next train waits for a period past it, so a failing track costs one
	// train per period, not one per observe. In memory only: a restart tries
	// again at once.
	failedAt int
}

// action is what the store must run: train on the first to periods, extend
// the model over periods [from, to), drop the track's points before the
// timestamp cut, or nothing.
type action struct {
	kind     actionKind
	from, to int
	cut      int
}

type actionKind uint8

const (
	actNone actionKind = iota
	actTrain
	actExtend
	actTrim
)

// appended answers the track reaching end, base + its length: the first
// train, or an extend when a trained model is behind the completed periods.
func (l *life) appended(o *Options, end int, trained bool) action {
	completed := end / o.Config.Period
	switch {
	case !trained && completed >= o.MinTrainPeriods && completed > l.failedAt:
		return action{kind: actTrain, to: completed}
	case trained && completed > l.modeled:
		return action{kind: actExtend, from: l.modeled, to: completed}
	}
	return action{}
}

// learned answers a train's install or an extend that left the model having
// seen the first to periods of a track ending at end: the trim, if any.
func (l *life) learned(o *Options, end, to int) action {
	l.modeled = to
	cut := o.trimCut(l.base, end, to)
	if cut <= l.base {
		return action{}
	}
	l.base = cut
	return action{kind: actTrim, cut: cut}
}

// failed takes a train over the first to periods that did not install.
func (l *life) failed(to int) {
	l.failedAt = to
}

// loaded takes an object read back from disk.
func (l *life) loaded(base, modeled int) {
	l.base, l.modeled = base, modeled
}

// trimCut is where Config.RetainPeriods lets the trim cut a track ending at
// end whose model has seen modeled periods: period-aligned, never past the
// modeled boundary (unmodeled points must survive to be learned), keeping at
// least MaxRecent points for query windows. base when nothing may go.
func (o *Options) trimCut(base, end, modeled int) int {
	period := o.Config.Period
	if o.Config.RetainPeriods <= 0 {
		return base
	}
	cut := min(min(end/period-o.Config.RetainPeriods, modeled)*period, end-o.MaxRecent)
	return max(cut-cut%period, base)
}
