package experiments

import (
	"fmt"
	"strings"
)

// Check compares the tables of a run with a recorded run of the same
// experiments, printed digit against printed digit, and returns one line
// per difference. Sections start at "== name: …" lines and are matched by
// name; recorded sections the run did not print are ignored. A header's
// "(completed in …)" suffix is not compared, and neither are the values of
// a timing figure, one whose unit — the innermost parenthesis that ends
// its column header — is a time (ns, µs, ms, s); its x column is.
func Check(recorded, run string) []string {
	want := sections(recorded)
	var diffs []string
	for _, got := range sectionList(run) {
		w, ok := want[got.name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("%s: not in the recorded run", got.name))
			continue
		}
		timing := false
		for i := 0; i < max(len(w.lines), len(got.lines)); i++ {
			if i >= len(w.lines) || i >= len(got.lines) {
				diffs = append(diffs, fmt.Sprintf("%s: %d lines recorded, %d printed", got.name, len(w.lines), len(got.lines)))
				break
			}
			a, b := w.lines[i], got.lines[i]
			if strings.HasPrefix(b, "# ") {
				timing = timeUnit(b)
			}
			if a == b || timing && !strings.HasPrefix(b, "#") && sameX(a, b) {
				continue
			}
			diffs = append(diffs, fmt.Sprintf("%s:\n  recorded %s\n  printed  %s", got.name, a, b))
		}
	}
	return diffs
}

// section is one experiment's printed output: its header without the
// completed-in suffix, then its lines.
type section struct {
	name  string
	lines []string
}

// sectionList splits printed tables into sections, dropping the blank
// lines that end each one.
func sectionList(text string) []section {
	var out []section
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			if i := strings.LastIndex(line, " (completed in "); i >= 0 {
				line = line[:i]
			}
			name, _, _ := strings.Cut(rest, ":")
			out = append(out, section{name: name})
		}
		if len(out) > 0 {
			out[len(out)-1].lines = append(out[len(out)-1].lines, line)
		}
	}
	for i := range out {
		for n := len(out[i].lines); out[i].lines[n-1] == ""; n-- {
			out[i].lines = out[i].lines[:n-1]
		}
	}
	return out
}

func sections(text string) map[string]section {
	m := map[string]section{}
	for _, s := range sectionList(text) {
		m[s.name] = s
	}
	return m
}

// timeUnit reports whether a figure's column header names a time unit.
func timeUnit(header string) bool {
	h := strings.TrimRight(header, ")")
	unit := h[strings.LastIndex(h, "(")+1:]
	unit, _, _ = strings.Cut(unit, "/")
	switch strings.TrimSpace(unit) {
	case "ns", "µs", "ms", "s":
		return true
	}
	return false
}

// sameX reports whether two rows of a timing figure agree on everything
// but their timings: the x value and the number of columns.
func sameX(a, b string) bool {
	fa, fb := strings.Fields(a), strings.Fields(b)
	return len(fa) == len(fb) && len(fa) > 0 && fa[0] == fb[0]
}
