package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
)

// This file implements the replanner behind every mid-run change of
// the live processor set: given which processors are (now) alive and
// which tasks' results survive on them, it maps every task whose
// results were lost (or never produced) onto the live processors,
// respecting the task graph's precedence constraints. It reuses the
// compiled graph view and the ETF selection rule of the ordinary
// schedulers, so a replan is just another (partial) schedule. The same
// algorithm serves both directions of fleet elasticity: *shrink*
// (crash recovery and graceful drain remove processors from Live) and
// *expand* (a joining worker revives processors, and queued work
// migrates onto them because the ETF rule sees their idle capacity).

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
	// Moved lists the re-planned tasks in placement order (for
	// TaskRescheduled trace events).
	Moved []graph.NodeID
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
	c, err := compiledFor(s.Graph, s.Machine)
	if err != nil {
		return nil, err
	}

	// The needed set: tasks with no surviving results.
	needed := make([]bool, c.n)
	remaining := 0
	for t := 0; t < c.n; t++ {
		if _, ok := st.Done[c.ids[t]]; !ok {
			needed[t] = true
			remaining++
		}
	}
	plan := &Reassignment{}
	if remaining == 0 {
		return plan, nil
	}

	// Pending counts over *needed* distinct predecessors only; done
	// predecessors are data sources available at t = 0.
	pending := make([]int32, c.n)
	seen := make([]int32, c.n)
	for t := int32(0); t < int32(c.n); t++ {
		if !needed[t] {
			continue
		}
		for _, a := range c.predArcsOf(t) {
			if needed[a.from] && seen[a.from] != t+1 {
				seen[a.from] = t + 1
				pending[t]++
			}
		}
	}
	var ready []int32
	for t := int32(0); t < int32(c.n); t++ {
		if needed[t] && pending[t] == 0 {
			ready = append(ready, t)
		}
	}

	newPE := make([]int, c.n)
	finish := make([]machine.Time, c.n)
	procFree := make([]machine.Time, numPE)

	// arrival returns when arc a's data can be on pe: from the holder
	// (finish 0) for surviving producers, from the re-planned copy
	// otherwise (which must already be placed).
	arrival := func(a carc, pe int) machine.Time {
		if needed[a.from] {
			return finish[a.from] + c.comm(a.words, newPE[a.from], pe)
		}
		return c.comm(a.words, st.Done[c.ids[a.from]], pe)
	}

	for remaining > 0 {
		if len(ready) == 0 {
			return nil, fmt.Errorf("sched: replan: %d tasks unreachable (cycle or inconsistent done set)", remaining)
		}
		// ETF selection over (ready task, live PE): minimise finish
		// time; ties by higher static level, then task name order,
		// then processor index.
		bestIdx, bestPE := -1, -1
		bestT := int32(-1)
		var bestStart, bestFinish machine.Time
		for i, t := range ready {
			for pe := 0; pe < numPE; pe++ {
				if !st.Live[pe] {
					continue
				}
				st0 := procFree[pe]
				for _, a := range c.predArcsOf(t) {
					if at := arrival(a, pe); at > st0 {
						st0 = at
					}
				}
				fin := st0 + c.exec(t, pe)
				better := false
				switch {
				case bestIdx < 0:
					better = true
				case fin != bestFinish:
					better = fin < bestFinish
				case c.slevel[t] != c.slevel[bestT]:
					better = c.slevel[t] > c.slevel[bestT]
				case t != bestT:
					better = c.rank[t] < c.rank[bestT]
				default:
					better = pe < bestPE
				}
				if better {
					bestIdx, bestPE, bestT, bestStart, bestFinish = i, pe, t, st0, fin
				}
			}
		}
		t := bestT
		id := c.ids[t]
		plan.Slots = append(plan.Slots, Slot{Task: id, PE: bestPE, Start: bestStart, Finish: bestFinish})
		plan.Moved = append(plan.Moved, id)
		for _, a := range c.predArcsOf(t) {
			oa := &c.arcs[a.aidx]
			var srcPE int
			var srcFinish machine.Time
			if needed[a.from] {
				srcPE, srcFinish = newPE[a.from], finish[a.from]
			} else {
				srcPE, srcFinish = st.Done[c.ids[a.from]], 0
			}
			if srcPE == bestPE {
				continue
			}
			plan.Msgs = append(plan.Msgs, Msg{
				Var: oa.Var, From: oa.From, To: id,
				FromPE: srcPE, ToPE: bestPE, Words: oa.Words,
				Send: srcFinish, Recv: srcFinish + c.comm(a.words, srcPE, bestPE),
				Hops: s.Machine.Topo.Hops(srcPE, bestPE),
			})
		}
		newPE[t], finish[t] = bestPE, bestFinish
		procFree[bestPE] = bestFinish
		// swap-remove from the pool; release successors.
		ready[bestIdx] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		remaining--
		for _, su := range c.succIDsOf(t) {
			if !needed[su] {
				continue
			}
			pending[su]--
			if pending[su] == 0 {
				ready = append(ready, su)
			}
		}
	}
	return plan, nil
}
