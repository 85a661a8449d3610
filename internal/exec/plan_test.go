package exec

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// planFixture is the wide design (s1, s2 -> m1, m2, m3 -> snk, which
// exports y) scheduled by ETF on four fully connected processors.
func planFixture(t *testing.T) (*sched.Schedule, *graph.Flat) {
	t.Helper()
	flat := wideDesign(t)
	s, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "full:4", params()))
	if err != nil {
		t.Fatal(err)
	}
	return s, flat
}

// slotPEs maps each replanned task to the processor it landed on.
func slotPEs(p *ResumePlan) map[graph.NodeID]int {
	m := map[graph.NodeID]int{}
	for _, sl := range p.Slots {
		m[sl.Task] = sl.PE
	}
	return m
}

// TestPlanResume drives the barrier decision through every kind of
// fleet change as plain data: no session, no goroutine, no socket.
func TestPlanResume(t *testing.T) {
	s, flat := planFixture(t)
	all := map[graph.NodeID]int{"s1": 0, "s2": 0, "m1": 0, "m2": 0, "m3": 0, "snk": 0}
	env := func(k string, v float64) pits.Env { return pits.Env{k: pits.Num(v)} }

	for _, tc := range []struct {
		name    string
		b       Barrier
		wantErr string
		check   func(t *testing.T, p *ResumePlan, events []trace.Event)
	}{
		{
			name: "single crash",
			b: Barrier{Epoch: 1, Dead: []bool{false, true, false, false}, Cause: "recovery", Now: 77,
				Parked: []*PauseState{{Done: map[graph.NodeID]int{"s1": 0, "s2": 2}, Dead: []int{1}, Clock: 40}}},
			check: func(t *testing.T, p *ResumePlan, events []trace.Event) {
				if p.Epoch != 1 || p.Clock != 40 {
					t.Errorf("epoch %d clock %d, want 1 and 40", p.Epoch, p.Clock)
				}
				if want := map[graph.NodeID]int{"s1": 0, "s2": 2}; !reflect.DeepEqual(p.Done, want) {
					t.Errorf("done %v, want %v", p.Done, want)
				}
				got := slotPEs(p)
				for _, task := range []graph.NodeID{"m1", "m2", "m3", "snk"} {
					if pe, ok := got[task]; !ok || pe == 1 {
						t.Errorf("task %s replanned on PE %d (planned: %v), want a live processor", task, pe, ok)
					}
				}
				if len(got) != 4 {
					t.Errorf("replanned %v, want exactly the four lost tasks", got)
				}
				if len(events) != len(p.Slots) {
					t.Fatalf("%d events for %d slots", len(events), len(p.Slots))
				}
				for i, e := range events {
					orig, _ := s.PrimarySlot(p.Slots[i].Task)
					want := trace.Event{Kind: trace.TaskRescheduled, At: 77, Task: p.Slots[i].Task,
						PE: p.Slots[i].PE, Peer: orig.PE, Note: "recovery"}
					if e != want {
						t.Errorf("event %d is %+v, want %+v", i, e, want)
					}
				}
			},
		},
		{
			name: "two crashes in one barrier",
			b: Barrier{Epoch: 1, Dead: []bool{false, true, true, false}, Cause: "recovery",
				Parked: []*PauseState{{Done: map[graph.NodeID]int{"s1": 0}, Dead: []int{1, 2}}}},
			check: func(t *testing.T, p *ResumePlan, _ []trace.Event) {
				got := slotPEs(p)
				if len(got) != 5 {
					t.Errorf("replanned %v, want the five tasks without a surviving result", got)
				}
				for task, pe := range got {
					if pe != 0 && pe != 3 {
						t.Errorf("task %s replanned on dead PE %d", task, pe)
					}
				}
			},
		},
		{
			name: "a result held twice goes to the lower live holder",
			b: Barrier{Epoch: 1, Dead: []bool{false, false, true, false}, Cause: "recovery",
				Parked: []*PauseState{
					{Done: map[graph.NodeID]int{"s1": 1, "s2": 0}},
					{Done: map[graph.NodeID]int{"s1": 3, "s2": 3}, Dead: []int{2}},
				}},
			check: func(t *testing.T, p *ResumePlan, _ []trace.Event) {
				if want := map[graph.NodeID]int{"s1": 1, "s2": 0}; !reflect.DeepEqual(p.Done, want) {
					t.Errorf("done %v, want %v", p.Done, want)
				}
			},
		},
		{
			name: "a holder dead in the new era is passed over",
			b: Barrier{Epoch: 1, Dead: []bool{false, true, false, false}, Cause: "drain",
				Parked: []*PauseState{
					{Done: map[graph.NodeID]int{"s1": 1, "s2": 0}},
					{Done: map[graph.NodeID]int{"s1": 3}},
				}},
			check: func(t *testing.T, p *ResumePlan, _ []trace.Event) {
				if want := map[graph.NodeID]int{"s1": 3, "s2": 0}; !reflect.DeepEqual(p.Done, want) {
					t.Errorf("done %v, want %v", p.Done, want)
				}
			},
		},
		{
			name: "an export whose only copy died is adopted by the holder",
			b: Barrier{Epoch: 2, Dead: []bool{false, true, false, false}, Cause: "recovery",
				Parked: []*PauseState{{Done: all, Dead: []int{1}}}},
			check: func(t *testing.T, p *ResumePlan, events []trace.Event) {
				if want := []Adoption{{Task: "snk", Var: "y", PE: 0}}; !reflect.DeepEqual(p.Adopt, want) {
					t.Errorf("adoptions %v, want %v", p.Adopt, want)
				}
				if len(p.Slots) != 0 || len(events) != 0 {
					t.Errorf("every result survives, yet %d slots and %d events were planned", len(p.Slots), len(events))
				}
			},
		},
		{
			name: "an export still held is not adopted",
			b: Barrier{Epoch: 2, Dead: []bool{false, true, false, false}, Cause: "recovery",
				Parked: []*PauseState{{Done: all, Held: []string{"snk.y"}, Dead: []int{1}}}},
			check: func(t *testing.T, p *ResumePlan, _ []trace.Event) {
				if len(p.Adopt) != 0 {
					t.Errorf("adoptions %v, want none", p.Adopt)
				}
			},
		},
		{
			name: "drain re-homes the target's orphans round-robin",
			b: Barrier{Epoch: 1, Dead: []bool{false, false, true, true}, Cause: "drain", Now: 9, VirtualTime: true,
				Parked: []*PauseState{{Done: map[graph.NodeID]int{"s1": 1}, Clock: 30}},
				Drained: &PauseState{
					Done:  map[graph.NodeID]int{"s1": 2, "s2": 2, "m3": 3, "m1": 3, "m2": 2, "snk": 3},
					Held:  []string{"snk.y"},
					Clock: 55,
					Local: map[graph.NodeID]pits.Env{"s2": env("q", 6), "m1": env("r1", 13), "m2": env("r2", 1),
						"m3": env("r3", 42), "snk": env("y", 56)},
				}},
			check: func(t *testing.T, p *ResumePlan, _ []trace.Event) {
				wantImports := []Import{
					{Task: "m1", PE: 0, Env: env("r1", 13)},
					{Task: "m2", PE: 1, Env: env("r2", 1)},
					{Task: "m3", PE: 0, Env: env("r3", 42)},
					{Task: "s2", PE: 1, Env: env("q", 6)},
					{Task: "snk", PE: 0, Env: env("y", 56)},
				}
				if !reflect.DeepEqual(p.Imports, wantImports) {
					t.Errorf("imports %v, want %v", p.Imports, wantImports)
				}
				wantDone := map[graph.NodeID]int{"s1": 1, "m1": 0, "m2": 1, "m3": 0, "s2": 1, "snk": 0}
				if !reflect.DeepEqual(p.Done, wantDone) {
					t.Errorf("done %v, want %v", p.Done, wantDone)
				}
				// The target's own export of y is not a survivor's: the new
				// holder of snk must reproduce it.
				if want := []Adoption{{Task: "snk", Var: "y", PE: 0}}; !reflect.DeepEqual(p.Adopt, want) {
					t.Errorf("adoptions %v, want %v", p.Adopt, want)
				}
				if p.Clock != 55 {
					t.Errorf("clock %d, want the drained session's 55", p.Clock)
				}
			},
		},
		{
			name: "join revives processors and gives them work",
			b: Barrier{Epoch: 3, Dead: []bool{false, false, false, false}, Cause: "join", Now: 5, VirtualTime: true,
				Parked: []*PauseState{{Done: map[graph.NodeID]int{"s1": 0, "s2": 0}, Dead: []int{1, 2, 3}, Clock: 64}}},
			check: func(t *testing.T, p *ResumePlan, events []trace.Event) {
				got := slotPEs(p)
				if _, rerun := got["s1"]; rerun || len(got) != 4 {
					t.Errorf("replanned %v, want m1 m2 m3 snk and no surviving task re-run", got)
				}
				revived := false
				for _, pe := range got {
					revived = revived || pe != 0
				}
				if !revived {
					t.Errorf("every slot stayed on PE 0 (%v); the revived processors got no work", got)
				}
				for _, e := range events {
					if e.At != 64 || e.Note != "join" {
						t.Errorf("event %+v, want the parked virtual clock 64 and cause join", e)
					}
				}
			},
		},
		{
			name: "all dead",
			b: Barrier{Epoch: 1, Dead: []bool{true, true, true, true}, Cause: "recovery",
				Parked:  []*PauseState{{Dead: []int{0, 1, 2, 3}}},
				Drained: &PauseState{Done: map[graph.NodeID]int{"s1": 0}}},
			wantErr: "no live processors",
		},
		{
			name: "a holder outside the machine",
			b: Barrier{Epoch: 1, Dead: []bool{false, false, false, false}, Cause: "recovery",
				Parked: []*PauseState{{Done: map[graph.NodeID]int{"s1": 9}}}},
			wantErr: "invalid PE 9",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, events, err := PlanResume(s, flat, tc.b)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one mentioning %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p.Dead, tc.b.Dead) {
				t.Errorf("plan's dead mask %v, want the barrier's %v", p.Dead, tc.b.Dead)
			}
			for _, sl := range p.Slots {
				if tc.b.Dead[sl.PE] {
					t.Errorf("task %s planned on PE %d, dead in the new era", sl.Task, sl.PE)
				}
			}
			tc.check(t, p, events)

			p2, events2, err := PlanResume(s, flat, tc.b)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(p, p2) || !reflect.DeepEqual(events, events2) {
				t.Errorf("the same barrier planned twice differs:\n %+v\n %+v", p, p2)
			}
		})
	}
}

// TestMergePartialsPrintOrder: print lines come back in ascending
// processor order whichever partial carried them, each processor's own
// lines in the order it printed them; a partial whose tags do not match
// its lines is rejected with both lengths named.
func TestMergePartialsPrintOrder(t *testing.T) {
	_, printed, err := MergePartials(
		&Partial{Printed: []string{"c1", "a1", "c2"}, PrintedPE: []int{2, 0, 2}},
		nil,
		&Partial{Printed: []string{"b1", "a2"}, PrintedPE: []int{1, 0}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a1", "a2", "b1", "c1", "c2"}; !reflect.DeepEqual(printed, want) {
		t.Errorf("printed %q, want %q", printed, want)
	}

	_, _, err = MergePartials(&Partial{Printed: []string{"x", "y"}, PrintedPE: []int{0}})
	if err == nil || !strings.Contains(err.Error(), "1 of its 2 print lines") {
		t.Errorf("mismatched tags: error %v, want one naming 1 of 2 lines", err)
	}
}
