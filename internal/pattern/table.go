package pattern

// Table holds a rule set as columns, one row per rule: every premise back
// to back in one arena, where each row's premise starts, and the
// consequence, confidence and support of every row. Nothing in it is a
// pointer but the five slice headers, so a fleet of tables costs the
// collector five words each however many rules they hold. A row's index is
// its ref. Pattern is the materialised view of one row. NewTable and
// TableOf make one; the zero Table is not ready for use.
type Table struct {
	premises []RegionID
	starts   []int32 // row i's premise is premises[starts[i]:starts[i+1]]
	conseqs  []int32
	confs    []float64
	supports []int32
}

// NewTable returns an empty table with room for rows rules and ids
// premise regions among them.
func NewTable(rows, ids int) *Table {
	return &Table{
		premises: make([]RegionID, 0, ids),
		starts:   make([]int32, 1, rows+1),
		conseqs:  make([]int32, 0, rows),
		confs:    make([]float64, 0, rows),
		supports: make([]int32, 0, rows),
	}
}

// TableOf lays patterns out as a table, in order.
func TableOf(ps []Pattern) *Table {
	ids := 0
	for _, p := range ps {
		ids += len(p.Premise)
	}
	t := NewTable(len(ps), ids)
	for _, p := range ps {
		t.Append(p)
	}
	return t
}

// Len returns how many rows the table holds.
func (t *Table) Len() int { return len(t.conseqs) }

// Append adds p as the table's last row. Region ids and supports count
// regions and periods, far below 2³¹.
func (t *Table) Append(p Pattern) {
	t.premises = append(t.premises, p.Premise...)
	t.starts = append(t.starts, int32(len(t.premises)))
	t.conseqs = append(t.conseqs, int32(p.Consequence))
	t.confs = append(t.confs, p.Confidence)
	t.supports = append(t.supports, int32(p.Support))
}

// Premise returns row i's premise as a view of the arena, capped at its
// own length so an append to it cannot write into the next row; nil for an
// empty premise.
func (t *Table) Premise(i int) []RegionID {
	lo, hi := t.starts[i], t.starts[i+1]
	if lo == hi {
		return nil
	}
	return t.premises[lo:hi:hi]
}

// Consequence returns row i's consequence region.
func (t *Table) Consequence(i int) RegionID { return RegionID(t.conseqs[i]) }

// Confidence returns row i's confidence.
func (t *Table) Confidence(i int) float64 { return t.confs[i] }

// Support returns row i's support.
func (t *Table) Support(i int) int { return int(t.supports[i]) }

// Set rewrites row i's confidence and support; its itemset does not change.
func (t *Table) Set(i int, conf float64, support int) {
	t.confs[i], t.supports[i] = conf, int32(support)
}

// Pattern returns row i. Its premise is a view of the arena (Premise), so
// a later Append cannot change it, and a later Set does not either: the
// confidence and support are copied out.
func (t *Table) Pattern(i int) Pattern {
	return Pattern{
		Premise:     t.Premise(i),
		Consequence: RegionID(t.conseqs[i]),
		Confidence:  t.confs[i],
		Support:     int(t.supports[i]),
	}
}

// Patterns returns every row, in order, each as Pattern returns it.
func (t *Table) Patterns() []Pattern {
	out := make([]Pattern, t.Len())
	for i := range out {
		out[i] = t.Pattern(i)
	}
	return out
}
