package exec

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the one barrier decision of the runtime: every survivor
// is parked — what does the next era look like? The single-process
// runner and the wire coordinator both gather parked states their own
// way (goroutines here, frames there) and then call PlanResume, so a
// crash recovery, a graceful drain and a mid-run join are planned by
// the same code whether the machine lives in one process or ten.

// Barrier is what is known once every surviving session is parked.
type Barrier struct {
	// Epoch is the era being planned.
	Epoch int64
	// Dead flags every processor that is gone in the new era: crashed
	// or drained ones are set, ones a joiner revives are clear.
	Dead []bool
	// Parked holds the survivors' pause states in ascending worker
	// order (a single-process run has exactly one).
	Parked []*PauseState
	// Drained, when non-nil, is the checkpoint of a session departing
	// at this barrier. It is not a survivor: results only it holds are
	// re-homed onto live processors, and its exports are left for the
	// adoption pass to reproduce from the new holders.
	Drained *PauseState
	// Cause labels the TaskRescheduled events: "recovery", "drain" or
	// "join".
	Cause string
	// Now stamps the events — except under VirtualTime, where they
	// carry the latest parked virtual clock instead.
	Now         machine.Time
	VirtualTime bool
}

// PlanResume decides the next era from a complete barrier: it merges
// the survivors' results (each task goes to its first holder in Parked
// order that is live in the new era — the lowest live processor, since
// every session already reports its lowest local holder), re-homes a
// drained session's orphans round-robin over the live processors in
// task order, replans everything else with sched.Replan, and adopts
// every external output of a surviving result that no survivor still
// exports. It returns the plan every session installs and the
// TaskRescheduled events describing it. A pure function: identical
// barriers yield identical plans. The plan aliases b.Dead.
func PlanResume(s *sched.Schedule, flat *graph.Flat, b Barrier) (*ResumePlan, []trace.Event, error) {
	done := map[graph.NodeID]int{}
	held := map[string]bool{}
	clock := machine.Time(0)
	for _, st := range b.Parked {
		for t, pe := range st.Done {
			// An out-of-range holder is left in for Replan to reject.
			gone := pe >= 0 && pe < len(b.Dead) && b.Dead[pe]
			if _, ok := done[t]; !ok && !gone {
				done[t] = pe
			}
		}
		for _, q := range st.Held {
			held[q] = true
		}
		if st.Clock > clock {
			clock = st.Clock
		}
	}

	live := make([]bool, len(b.Dead))
	var livePEs []int
	for pe, d := range b.Dead {
		if !d {
			live[pe] = true
			livePEs = append(livePEs, pe)
		}
	}
	var imports []Import
	// With no live processor there is nowhere to re-home to; Replan
	// reports the empty machine below.
	if dr := b.Drained; dr != nil && len(livePEs) > 0 {
		if dr.Clock > clock {
			clock = dr.Clock
		}
		var orphans []graph.NodeID
		for t := range dr.Done {
			if _, ok := done[t]; !ok {
				orphans = append(orphans, t)
			}
		}
		sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
		for k, t := range orphans {
			pe := livePEs[k%len(livePEs)]
			done[t] = pe
			imports = append(imports, Import{Task: t, PE: pe, Env: dr.Local[t]})
		}
	}

	re, err := sched.Replan(s, sched.ReplanState{Live: live, Done: done})
	if err != nil {
		return nil, nil, fmt.Errorf("exec: crash recovery failed: %w", err)
	}

	// Orphaned external outputs: a surviving result whose exporting copy
	// died or departed re-exports from its holder.
	tasks := make([]graph.NodeID, 0, len(done))
	for t := range done {
		tasks = append(tasks, t)
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i] < tasks[j] })
	var adopt []Adoption
	for _, t := range tasks {
		for _, v := range flat.ExternalOut[t] {
			if !held[string(t)+"."+v] {
				adopt = append(adopt, Adoption{Task: t, Var: v, PE: done[t]})
			}
		}
	}

	at := b.Now
	if b.VirtualTime {
		at = clock
	}
	events := make([]trace.Event, 0, len(re.Slots))
	for _, sl := range re.Slots {
		orig := sl.PE
		if ps, ok := s.PrimarySlot(sl.Task); ok {
			orig = ps.PE
		}
		events = append(events, trace.Event{Kind: trace.TaskRescheduled, At: at,
			Task: sl.Task, PE: sl.PE, Peer: orig, Note: b.Cause})
	}
	return &ResumePlan{Epoch: b.Epoch, Slots: re.Slots, Msgs: re.Msgs, Done: done,
		Dead: b.Dead, Adopt: adopt, Imports: imports, Clock: clock}, events, nil
}
