// Package exec runs scheduled Banger programs in two ways:
//
//   - Simulate: a deterministic discrete-event simulation that replays
//     a schedule's placement and ordering decisions against the machine
//     cost model, deriving timing independently — the engine behind
//     Banger's predicted Gantt charts and speedup curves;
//   - Runner: real parallel execution — one goroutine per processor,
//     channels as network links, with each task's PITS routine
//     interpreted on real data. This is the "trial run of an entire
//     program" the paper lists among Banger's key capabilities.
package exec

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Simulate replays the schedule's record against the machine cost
// model and derives every time from it. The record fixes which task
// runs on which processor, in which local order, including duplicates,
// and which producer copy feeds each consumer copy. The walk takes the
// slots in Slots order. Each slot starts once the slot before it on its
// processor (by start) has finished and its inputs have arrived. Its
// recorded messages arrive by the schedule's own rule
// (sched.Schedule.Deliver), called in their recorded order, so the
// derived times equal the scheduler's for every scheduler: for MH that
// books its link contention as MH did. A slot recorded before the slot
// it follows on its processor, as ISH's hole insertions are, waits for
// a later pass. The returned trace contains task and message events.
func Simulate(s *sched.Schedule) (*trace.Trace, error) {
	if s == nil || s.Graph == nil || s.Machine == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	m, g, n := s.Machine, s.Graph, len(s.Slots)
	// A task has at most one copy per processor: the schedulers' invariant.
	type copyKey struct {
		task graph.NodeID
		pe   int
	}
	slotOf := make(map[copyKey]int32, n)
	first := make([]int32, n) // slot i's first recorded message, or -1
	for i, sl := range s.Slots {
		slotOf[copyKey{sl.Task, sl.PE}], first[i] = int32(i), -1
		switch {
		case g.Node(sl.Task) == nil:
			return nil, fmt.Errorf("exec: slot %d names task %q, which the graph lacks", i, sl.Task)
		case sl.PE < 0 || sl.PE >= m.NumPE():
			return nil, fmt.Errorf("exec: slot %d (%s) is on PE %d, outside the machine's %d", i, sl.Task, sl.PE, m.NumPE())
		case len(slotOf) <= i: // the key was there already
			return nil, fmt.Errorf("exec: slot %d: task %s already has a slot on PE %d", i, sl.Task, sl.PE)
		}
	}
	// Slot i's recorded messages, in record order, are first[i] and then
	// after[k] of each message k until -1; src[k] is k's producer slot.
	src, after := make([]int32, len(s.Msgs)), make([]int32, len(s.Msgs))
	for k := len(s.Msgs) - 1; k >= 0; k-- {
		msg := &s.Msgs[k]
		p, okp := slotOf[copyKey{msg.From, msg.FromPE}]
		c, okc := slotOf[copyKey{msg.To, msg.ToPE}]
		if !okp || !okc {
			return nil, fmt.Errorf("exec: message %d (%s %s->%s, PE %d->%d) names a copy with no slot", k, msg.Var, msg.From, msg.To, msg.FromPE, msg.ToPE)
		}
		src[k], after[k], first[c] = p, first[c], int32(k)
	}
	deliver, err := s.Deliver()
	if err != nil {
		return nil, err
	}

	finish := make([]machine.Time, n)
	done := make([]bool, n)
	// Each processor's slots run in PESlots order: next[pe] is the
	// position of the next, and free[pe] when the last one finished.
	next, free := make([]int, m.NumPE()), make([]machine.Time, m.NumPE())
	// feed returns the copy j that feeds arc a into slot i: the producer
	// of a recorded message (recorded), else the copy on i's processor,
	// else (a hand-built schedule with no message records) the finished
	// copy whose data arrives first, or -1 while none has finished.
	feed := func(i int32, a graph.Arc) (j int32, recorded bool) {
		for k := first[i]; k >= 0; k = after[k] {
			if s.Msgs[k].From == a.From && s.Msgs[k].Var == a.Var {
				return src[k], true
			}
		}
		pe := s.Slots[i].PE
		if j, here := slotOf[copyKey{a.From, pe}]; here {
			return j, false
		}
		j, best := -1, machine.Time(0)
		for _, cp := range s.SlotsFor(a.From) {
			c := slotOf[copyKey{a.From, cp.PE}]
			if t := finish[c] + m.CommTime(a.Words, cp.PE, pe); done[c] && (j < 0 || t < best) {
				j, best = c, t
			}
		}
		return j, false
	}
	tr := &trace.Trace{Label: "simulated:" + s.Algorithm, Events: make([]trace.Event, 0, 2*n+2*len(s.Msgs))}
	// Pass over the slots until all have run; a pass that runs none is
	// stuck.
	for ran, before := 0, -1; ran < n; {
		if ran == before {
			return nil, fmt.Errorf("exec: simulation deadlock — schedule's per-PE order is not consistent with precedence")
		}
		before = ran
	slots:
		for i, sl := range s.Slots {
			// Run slot i once what it waits for has run.
			if done[i] || s.PESlots(sl.PE)[next[sl.PE]].Task != sl.Task {
				continue
			}
			for k := first[i]; k >= 0; k = after[k] {
				if !done[src[k]] {
					continue slots
				}
			}
			for _, a := range g.PredArcs(sl.Task) {
				if j, _ := feed(int32(i), a); j < 0 || !done[j] {
					continue slots
				}
			}
			start := free[sl.PE]
			for k := first[i]; k >= 0; k = after[k] {
				msg := &s.Msgs[k]
				send := finish[src[k]]
				recv := deliver(msg.Words, send, msg.FromPE, msg.ToPE)
				start = max(start, recv)
				if msg.FromPE != msg.ToPE {
					tr.Add(trace.Event{Kind: trace.MsgSend, At: send, Task: msg.From, PE: msg.FromPE, Var: msg.Var, Peer: msg.ToPE})
					tr.Add(trace.Event{Kind: trace.MsgRecv, At: recv, Task: msg.From, PE: msg.ToPE, Var: msg.Var, Peer: msg.FromPE})
				}
			}
			for _, a := range g.PredArcs(sl.Task) {
				j, recorded := feed(int32(i), a)
				if recorded {
					continue
				}
				q := s.Slots[j].PE
				arrive := finish[j] + m.CommTime(a.Words, q, sl.PE)
				start = max(start, arrive)
				if q != sl.PE {
					tr.Add(trace.Event{Kind: trace.MsgSend, At: finish[j], Task: a.From, PE: q, Var: a.Var, Peer: sl.PE})
					tr.Add(trace.Event{Kind: trace.MsgRecv, At: arrive, Task: a.From, PE: sl.PE, Var: a.Var, Peer: q})
				}
			}
			finish[i], done[i] = start+m.ExecTime(g.Node(sl.Task).Work, sl.PE), true
			free[sl.PE], next[sl.PE] = finish[i], next[sl.PE]+1
			tr.Add(trace.Event{Kind: trace.TaskStart, At: start, Task: sl.Task, PE: sl.PE, Dup: sl.Dup})
			tr.Add(trace.Event{Kind: trace.TaskEnd, At: finish[i], Task: sl.Task, PE: sl.PE, Dup: sl.Dup})
			ran++
		}
	}
	tr.Sort()
	return tr, nil
}
