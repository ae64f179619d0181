package store

import (
	"testing"

	"hpm"
)

// TestLifeTransitions enumerates an object's model life event by event, with
// no store, goroutine or fault hook: each step is one event and the action
// life answers with, and each row ends in the state life must hold. Whether
// the object is trained is its predictor, not life's: a row starts trained
// or not, and a "learned" step installs the model as the store does.
func TestLifeTransitions(t *testing.T) {
	p := &Options{Config: hpm.Config{Period: 10}, MinTrainPeriods: 3, MaxRecent: 5}
	retain := func(periods, recent int) *Options {
		q := *p
		q.Config.RetainPeriods, q.MaxRecent = periods, recent
		return &q
	}
	loaded := func(base, modeled int) life {
		var l life
		l.loaded(base, modeled)
		return l
	}
	type step struct {
		event   string // appended(end), learned(end, to) or failed(to)
		end, to int
		want    action
	}
	none := action{}
	train := func(to int) action { return action{kind: actTrain, to: to} }
	extend := func(from, to int) action { return action{kind: actExtend, from: from, to: to} }
	trim := func(cut int) action { return action{kind: actTrim, cut: cut} }
	for _, tc := range []struct {
		name    string
		p       *Options
		from    life
		trained bool
		steps   []step
		want    life
	}{
		{name: "below minimum", p: p,
			steps: []step{{"appended", 9, 0, none}, {"appended", 29, 0, none}},
			want:  life{}},
		{name: "reaching minimum", p: p,
			steps: []step{{"appended", 29, 0, none}, {"appended", 30, 0, train(3)}},
			want:  life{}},
		{name: "a batch past the minimum trains every completed period", p: p,
			steps: []step{{"appended", 57, 0, train(5)}},
			want:  life{}},
		{name: "train succeeds with nothing to catch up", p: p,
			steps: []step{{"appended", 34, 0, train(3)}, {"learned", 34, 3, none}, {"appended", 34, 0, none}},
			want:  life{modeled: 3}},
		{name: "failed train waits for the next period", p: p,
			steps: []step{
				{"appended", 30, 0, train(3)},
				{"failed", 0, 3, none},
				{"appended", 31, 0, none},
				{"appended", 39, 0, none},
				{"appended", 40, 0, train(4)},
			},
			want: life{failedAt: 3}},
		{name: "second failure moves the wait", p: p, from: life{failedAt: 3},
			steps: []step{{"failed", 0, 4, none}, {"appended", 49, 0, none}, {"appended", 60, 0, train(6)}},
			want:  life{failedAt: 4}},
		{name: "one extend per completed period", p: p, from: life{modeled: 3}, trained: true,
			steps: []step{
				{"appended", 39, 0, none},
				{"appended", 40, 0, extend(3, 4)},
				{"learned", 40, 4, none},
				{"appended", 41, 0, none},
			},
			want: life{modeled: 4}},
		{name: "far period extends, never trains", p: p, from: life{modeled: 3}, trained: true,
			steps: []step{{"appended", 95, 0, extend(3, 9)}, {"learned", 95, 9, none}},
			want:  life{modeled: 9}},
		{name: "failed extend is asked again", p: p, from: life{modeled: 3}, trained: true,
			steps: []step{{"appended", 40, 0, extend(3, 4)}, {"appended", 41, 0, extend(3, 4)}},
			want:  life{modeled: 3}},
		{name: "trim: no window", p: retain(0, 5), from: life{modeled: 9}, trained: true,
			steps: []step{{"learned", 100, 10, none}},
			want:  life{modeled: 10}},
		{name: "trim: the window", p: retain(2, 5), from: life{modeled: 9}, trained: true,
			steps: []step{{"learned", 105, 10, trim(80)}},
			want:  life{base: 80, modeled: 10}},
		{name: "trim: never past the modeled boundary", p: retain(2, 5),
			steps: []step{{"learned", 105, 6, trim(60)}},
			want:  life{base: 60, modeled: 6}},
		{name: "trim: keeps MaxRecent points, period-aligned", p: retain(1, 25), from: life{modeled: 9}, trained: true,
			steps: []step{{"learned", 100, 10, trim(70)}},
			want:  life{base: 70, modeled: 10}},
		{name: "trim: never behind the base", p: retain(2, 5), from: life{base: 80, modeled: 9}, trained: true,
			steps: []step{{"learned", 105, 10, none}},
			want:  life{base: 80, modeled: 10}},
		{name: "trim: track shorter than the window", p: retain(4, 5),
			steps: []step{{"learned", 35, 3, none}},
			want:  life{modeled: 3}},
		{name: "loaded trained with modeled < completed", p: p, from: loaded(20, 4), trained: true,
			steps: []step{{"appended", 75, 0, extend(4, 7)}},
			want:  life{base: 20, modeled: 4}},
		{name: "loaded trained and current", p: p, from: loaded(0, 4), trained: true,
			steps: []step{{"appended", 49, 0, none}},
			want:  life{modeled: 4}},
		{name: "loaded untrained past the minimum", p: p, from: loaded(0, 0),
			steps: []step{{"appended", 51, 0, train(5)}},
			want:  life{}},
		{name: "loaded untrained below the minimum", p: p, from: loaded(0, 0),
			steps: []step{{"appended", 21, 0, none}},
			want:  life{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, trained := tc.from, tc.trained
			for i, st := range tc.steps {
				var got action
				switch st.event {
				case "appended":
					got = l.appended(tc.p, st.end, trained)
				case "learned":
					got = l.learned(tc.p, st.end, st.to)
					trained = true
				case "failed":
					l.failed(st.to)
				default:
					t.Fatalf("step %d: unknown event %q", i, st.event)
				}
				if got != st.want {
					t.Errorf("step %d: %s(end %d, to %d) = %+v, want %+v", i, st.event, st.end, st.to, got, st.want)
				}
			}
			if l != tc.want {
				t.Errorf("ends as %+v, want %+v", l, tc.want)
			}
		})
	}
}
