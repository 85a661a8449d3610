package sched

import (
	"fmt"

	"repro/internal/graph"
)

// This file implements the replanner behind every mid-run change of
// the live processor set: given which processors are (now) alive and
// which tasks' results survive on them, it maps every task whose
// results were lost (or never produced) onto the live processors. A
// replan is ETF on the list builder, restricted to the live processors,
// with each surviving result seeded as a zero-length copy finished at
// t = 0 on its holder — so arrivals, the messages from holders and the
// tie-breaks are the ordinary schedulers' own. The same algorithm serves
// both directions of fleet elasticity: *shrink* (crash recovery and
// graceful drain remove processors from Live) and *expand* (a joining
// worker revives processors, and queued work migrates onto them because
// the ETF rule sees their idle capacity).

// ReplanState describes the surviving state of an interrupted run at
// the epoch barrier.
type ReplanState struct {
	// Live flags each processor of the schedule's machine as alive in
	// the era being planned — which may include processors that were
	// dead (or never used) in the previous era, the expand case.
	Live []bool
	// Done maps each task whose computed outputs survive to one live
	// processor holding them (the worker-local environment acting as
	// the checkpoint). Tasks absent from Done are re-planned.
	Done map[graph.NodeID]int
}

// Reassignment is a replan: fresh slots for every task not in
// Done, placed on live processors only, plus the message records
// feeding them — from surviving holders (Send = 0: the data already
// exists) and between re-planned tasks. Slot and message times are
// planning estimates relative to the resume instant (t = 0); the
// runner uses them for per-PE ordering, not as a wall-clock promise.
type Reassignment struct {
	Slots []Slot
	Msgs  []Msg
}

// Replan plans the continuation of schedule s on the processor set
// st.Live — smaller than the previous era's after a crash or drain,
// larger after a join. It finalizes s (callers invoking Replan
// concurrently must finalize first). The plan is deterministic:
// identical inputs yield identical plans.
func Replan(s *Schedule, st ReplanState) (*Reassignment, error) {
	if s == nil || s.Graph == nil || s.Machine == nil {
		return nil, fmt.Errorf("sched: replan: nil schedule")
	}
	numPE := s.Machine.NumPE()
	if len(st.Live) != numPE {
		return nil, fmt.Errorf("sched: replan: %d liveness flags for %d processors", len(st.Live), numPE)
	}
	anyLive := false
	for _, l := range st.Live {
		anyLive = anyLive || l
	}
	if !anyLive {
		return nil, fmt.Errorf("sched: replan: no live processors")
	}
	for t, pe := range st.Done {
		if pe < 0 || pe >= numPE || !st.Live[pe] {
			return nil, fmt.Errorf("sched: replan: task %s held on dead or invalid PE %d", t, pe)
		}
		if s.Graph.Node(t) == nil {
			return nil, fmt.Errorf("sched: replan: unknown done task %q", t)
		}
	}
	s.Finalize()
	b, err := newBuilder(s.Graph, s.Machine)
	if err != nil {
		return nil, err
	}
	defer b.release()
	c := b.c
	held := make([]bool, c.n)
	for id, pe := range st.Done {
		t := c.idOf[id]
		held[t] = true
		b.copies[t] = append(b.copies[t], Slot{Task: id, PE: pe})
	}
	if err := b.etf(st.Live, held); err != nil {
		return nil, err
	}
	if left := c.n - len(st.Done) - len(b.slots); left > 0 {
		return nil, fmt.Errorf("sched: replan: %d tasks unreachable (cycle or inconsistent done set)", left)
	}
	sc := b.finish("replan")
	plan := &Reassignment{}
	if len(sc.Slots) > 0 {
		plan.Slots = sc.Slots
	}
	if len(sc.Msgs) > 0 {
		plan.Msgs = sc.Msgs
	}
	return plan, nil
}
