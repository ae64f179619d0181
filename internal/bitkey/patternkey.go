package bitkey

// PatternKey is the symbolization of a trajectory pattern: the consequence
// key CK (one bit per consequence time offset) placed before the premise key
// RK (one bit per frequent region). The paper concatenates the two bit
// strings; keeping them as separate fields preserves the concatenation
// semantics while letting Intersect test each part, exactly as §V-A defines.
type PatternKey struct {
	CK Key // consequence key
	RK Key // premise (region) key
}

// NewPatternKey returns an all-zero pattern key with ckLen consequence bits
// and rkLen premise bits.
func NewPatternKey(ckLen, rkLen int) PatternKey {
	return PatternKey{CK: New(ckLen), RK: New(rkLen)}
}

// Intersects implements the paper's Intersect operation: true only when the
// consequence keys share a '1' AND the premise keys share a '1'. This is the
// pruning predicate of Forward Query Processing.
func (p PatternKey) Intersects(q PatternKey) bool {
	return p.CK.Intersects(q.CK) && p.RK.Intersects(q.RK)
}
