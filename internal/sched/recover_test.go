package sched

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// checkPlan verifies a recovery plan is a valid continuation of s under
// st: every needed task planned exactly once on a live PE, per-PE slots
// non-overlapping, precedence respected (a needed predecessor finishes
// before its consumer starts, plus communication when they sit on
// different PEs), and message records consistent with the slots.
func checkPlan(t *testing.T, s *Schedule, st ReplanState, plan *Reassignment) {
	t.Helper()
	placed := map[graph.NodeID]Slot{}
	for _, sl := range plan.Slots {
		if sl.Dup {
			t.Errorf("recovery slot %v is marked duplicate", sl)
		}
		if !st.Live[sl.PE] {
			t.Errorf("task %s planned on dead PE %d", sl.Task, sl.PE)
		}
		if _, ok := st.Done[sl.Task]; ok {
			t.Errorf("done task %s re-planned", sl.Task)
		}
		if _, dup := placed[sl.Task]; dup {
			t.Errorf("task %s planned twice", sl.Task)
		}
		placed[sl.Task] = sl
	}
	for _, n := range s.Graph.Nodes() {
		if _, done := st.Done[n.ID]; done {
			continue
		}
		if _, ok := placed[n.ID]; !ok {
			t.Errorf("needed task %s missing from plan", n.ID)
		}
	}
	// Per-PE slots must not overlap.
	byPE := map[int][]Slot{}
	for _, sl := range plan.Slots {
		byPE[sl.PE] = append(byPE[sl.PE], sl)
	}
	for pe, slots := range byPE {
		for i, a := range slots {
			for _, b := range slots[i+1:] {
				if a.Start < b.Finish && b.Start < a.Finish {
					t.Errorf("PE %d slots overlap: %v and %v", pe, a, b)
				}
			}
		}
	}
	// Precedence: planned consumers wait for planned producers (plus
	// comm across PEs); surviving producers count as available at 0.
	for _, sl := range plan.Slots {
		for _, a := range s.Graph.PredArcs(sl.Task) {
			if hold, done := st.Done[a.From]; done {
				if c := s.Machine.CommTime(a.Words, hold, sl.PE); sl.Start < c {
					t.Errorf("task %s starts at %v before data from holder PE %d can arrive (%v)", sl.Task, sl.Start, hold, c)
				}
				continue
			}
			p, ok := placed[a.From]
			if !ok {
				continue // already reported missing above
			}
			need := p.Finish + s.Machine.CommTime(a.Words, p.PE, sl.PE)
			if sl.Start < need {
				t.Errorf("task %s starts at %v before %s's data arrives at %v", sl.Task, sl.Start, a.From, need)
			}
		}
	}
	for _, m := range plan.Msgs {
		if m.FromPE == m.ToPE {
			t.Errorf("co-located message %+v", m)
		}
		if !st.Live[m.FromPE] || !st.Live[m.ToPE] {
			t.Errorf("message %+v touches a dead PE", m)
		}
		if m.Recv < m.Send {
			t.Errorf("message %+v received before sent", m)
		}
		to, ok := placed[m.To]
		if !ok {
			t.Errorf("message %+v feeds unplanned task", m)
			continue
		}
		if to.PE != m.ToPE {
			t.Errorf("message %+v targets PE %d but %s runs on PE %d", m, m.ToPE, m.To, to.PE)
		}
	}
}

// recoverFixture schedules the GE graph with ETF on a 4-PE machine and
// derives a ReplanState in which PE 1 died after the slots finishing
// by cutoff completed. Results of tasks on the dead PE are re-homed
// onto PE 0 per the recovery convention (the test stands in for the
// runner, which knows who actually holds each env).
func recoverFixture(t *testing.T, cutoff machine.Time) (*Schedule, ReplanState) {
	t.Helper()
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:4", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	live := []bool{true, false, true, true}
	done := map[graph.NodeID]int{}
	for _, sl := range s.Slots {
		if sl.Dup || sl.Finish > cutoff {
			continue
		}
		pe := sl.PE
		if !live[pe] {
			pe = 0
		}
		done[sl.Task] = pe
	}
	return s, ReplanState{Live: live, Done: done}
}

func TestRecoverEmptyWhenAllDone(t *testing.T) {
	s, st := recoverFixture(t, s1Makespan(t))
	plan, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Slots) != 0 || len(plan.Msgs) != 0 {
		t.Errorf("expected empty plan, got %+v", plan)
	}
}

// s1Makespan returns a time no slot of the fixture schedule exceeds.
func s1Makespan(t *testing.T) machine.Time {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:4", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return s.Makespan()
}

func TestRecoverErrors(t *testing.T) {
	s, _ := recoverFixture(t, 0)
	cases := []struct {
		name string
		st   ReplanState
		want string
	}{
		{"no live PEs", ReplanState{Live: []bool{false, false, false, false}}, "no live processors"},
		{"liveness length mismatch", ReplanState{Live: []bool{true}}, "liveness flags"},
		{"holder dead", ReplanState{Live: []bool{true, false, true, true},
			Done: map[graph.NodeID]int{"p0": 1}}, "dead or invalid"},
		{"holder out of range", ReplanState{Live: []bool{true, false, true, true},
			Done: map[graph.NodeID]int{"p0": 9}}, "dead or invalid"},
		{"unknown task", ReplanState{Live: []bool{true, false, true, true},
			Done: map[graph.NodeID]int{"nosuch": 0}}, "unknown done task"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Replan(s, tc.st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

func TestRecoverPlansNeededOntoLivePEs(t *testing.T) {
	for _, cutoff := range []machine.Time{0, 15, 30} {
		s, st := recoverFixture(t, cutoff)
		plan, err := Replan(s, st)
		if err != nil {
			t.Fatalf("cutoff %v: %v", cutoff, err)
		}
		if needed := len(s.Graph.Nodes()) - len(st.Done); len(plan.Slots) != needed {
			t.Fatalf("cutoff %v: planned %d slots for %d needed tasks", cutoff, len(plan.Slots), needed)
		}
		checkPlan(t, s, st, plan)
	}
}

func TestRecoverSinglePESurvivor(t *testing.T) {
	// With one live PE the plan must serialise everything on it.
	s, st := recoverFixture(t, 20)
	st.Live = []bool{true, false, false, false}
	for task := range st.Done {
		st.Done[task] = 0
	}
	plan, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st, plan)
	for _, sl := range plan.Slots {
		if sl.PE != 0 {
			t.Errorf("task %s on PE %d with only PE 0 alive", sl.Task, sl.PE)
		}
	}
	if len(plan.Msgs) != 0 {
		t.Errorf("single-PE plan has %d messages", len(plan.Msgs))
	}
}

// TestRecoverCrashedPEHadNoRemainingSlots: a processor dies after
// finishing every slot assigned to it, so nothing it owned needs
// replanning — but its results must stay usable (from their re-homed
// holders) and the remaining tasks of the *live* processors must still
// be planned onto live processors only.
func TestRecoverCrashedPEHadNoRemainingSlots(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:4", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	live := []bool{true, false, true, true}
	// The dead PE finished everything it was given; a prefix of the other
	// processors' work is also done. Dead-PE results re-home to PE 0.
	done := map[graph.NodeID]int{}
	var cutoff machine.Time = 20
	for _, sl := range s.Slots {
		if sl.Dup {
			continue
		}
		if sl.PE == 1 {
			done[sl.Task] = 0
		} else if sl.Finish <= cutoff {
			done[sl.Task] = sl.PE
		}
	}
	st := ReplanState{Live: live, Done: done}
	plan, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st, plan)
	// Nothing planned may originate from the dead PE: all its work was
	// complete, so only live processors' pending tasks appear.
	for _, sl := range plan.Slots {
		if orig, ok := s.PrimarySlot(sl.Task); ok && orig.PE == 1 {
			t.Errorf("task %s originally on the fully-finished dead PE was replanned", sl.Task)
		}
	}
}

// TestRecoverTwoPEMachineLosesOne: on a 2-processor machine a crash
// leaves a single live PE — the smallest possible survivor set. The
// plan must serialise every pending task on the survivor with no
// messages, regardless of how communication-heavy the schedule was.
func TestRecoverTwoPEMachineLosesOne(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:2", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	live := []bool{true, false}
	done := map[graph.NodeID]int{}
	var cutoff machine.Time = 15
	for _, sl := range s.Slots {
		if sl.Dup || sl.Finish > cutoff {
			continue
		}
		done[sl.Task] = 0 // survivor holds everything finished
	}
	st := ReplanState{Live: live, Done: done}
	plan, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st, plan)
	if len(plan.Slots) == 0 {
		t.Fatal("crash left pending work but the plan is empty")
	}
	for _, sl := range plan.Slots {
		if sl.PE != 0 {
			t.Errorf("task %s planned on PE %d; only PE 0 is alive", sl.Task, sl.PE)
		}
	}
	if len(plan.Msgs) != 0 {
		t.Errorf("single-survivor plan has %d messages", len(plan.Msgs))
	}
}

// TestRecoverBackToBackCrashes: a second processor dies after the first
// recovery already replanned — two epochs of recovery state. The second
// plan must start from the first plan's placements (tasks finished
// under plan 1 are held by their *new* processors) and use only the
// remaining live set.
func TestRecoverBackToBackCrashes(t *testing.T) {
	s, st1 := recoverFixture(t, 20) // epoch 1: PE 1 dies
	plan1, err := Replan(s, st1)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st1, plan1)

	// Epoch 2: some of plan 1's slots complete on their new processors,
	// then PE 2 dies too. Its completed results re-home to PE 0.
	live2 := []bool{true, false, false, true}
	done2 := map[graph.NodeID]int{}
	for task, pe := range st1.Done {
		if !live2[pe] {
			pe = 0
		}
		done2[task] = pe
	}
	var cutoff2 machine.Time
	for _, sl := range plan1.Slots {
		if sl.Finish > cutoff2 {
			cutoff2 = sl.Finish
		}
	}
	cutoff2 /= 2
	for _, sl := range plan1.Slots {
		if sl.Finish > cutoff2 {
			continue
		}
		pe := sl.PE
		if !live2[pe] {
			pe = 0
		}
		done2[sl.Task] = pe
	}
	st2 := ReplanState{Live: live2, Done: done2}
	plan2, err := Replan(s, st2)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st2, plan2)
	// Everything pending after the second crash must avoid both dead PEs.
	for _, sl := range plan2.Slots {
		if sl.PE == 1 || sl.PE == 2 {
			t.Errorf("task %s planned on dead PE %d in epoch 2", sl.Task, sl.PE)
		}
	}
	// The second plan must cover exactly the tasks not yet done anywhere.
	if needed := len(s.Graph.Nodes()) - len(done2); len(plan2.Slots) != needed {
		t.Errorf("epoch-2 plan has %d slots for %d needed tasks", len(plan2.Slots), needed)
	}
}

func TestRecoverDeterministic(t *testing.T) {
	s, st := recoverFixture(t, 20)
	a, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two recoveries of the same state differ:\n%+v\n%+v", a, b)
	}
}

func TestRecoverConcurrentUse(t *testing.T) {
	// Replan must be callable from several goroutines once the
	// schedule is finalized (tier-1 runs this under -race).
	s, st := recoverFixture(t, 20)
	s.Finalize()
	want, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := Replan(s, st)
			if err != nil {
				t.Error(err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Error("concurrent recovery produced a different plan")
			}
		}()
	}
	wg.Wait()
}
