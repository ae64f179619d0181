package main

import (
	"strings"
	"testing"
)

// TestOrphanFlag: a flag that shapes something another flag leaves out is
// refused by name, and the same flag beside what it shapes is accepted.
func TestOrphanFlag(t *testing.T) {
	for _, tc := range []struct {
		set                 []string
		fleetIndex, evalOff bool
		refused             string // flag named in the error; empty = accepted
	}{
		{set: []string{"index-cell"}, refused: "-index-cell"},
		{set: []string{"index-cell"}, fleetIndex: true},
		{set: []string{"eval-hit-distance"}, evalOff: true, refused: "-eval-hit-distance"},
		{set: []string{"eval-ring"}, evalOff: true, refused: "-eval-ring"},
		{set: []string{"eval-hit-distance", "eval-ring"}},
		{set: []string{"eval-off"}, evalOff: true},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		err := orphanFlag(set, tc.fleetIndex, tc.evalOff)
		switch {
		case tc.refused == "" && err != nil:
			t.Errorf("%v (fleet index %v, eval off %v) refused: %v", tc.set, tc.fleetIndex, tc.evalOff, err)
		case tc.refused != "" && (err == nil || !strings.Contains(err.Error(), tc.refused+" ")):
			t.Errorf("%v (fleet index %v, eval off %v): %v, want %s refused", tc.set, tc.fleetIndex, tc.evalOff, err, tc.refused)
		}
	}
}
