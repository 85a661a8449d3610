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
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Simulate replays the schedule's placements (which task on which
// processor, in which local order, including duplicates) and its
// message routing (which producer copy feeds each consumer copy)
// under the contention-free machine model, deriving start/finish
// times from first principles. For schedules produced by the
// contention-free schedulers — every one but MH, including DSH, whose
// duplicates make the producer-copy choice significant, and BSP, whose
// supersteps order each processor's slots but delay none — the derived
// times equal the scheduled times; for MH the derived times may be
// earlier (MH also charges link contention). The returned trace
// contains task and message events.
func Simulate(s *sched.Schedule) (*trace.Trace, error) {
	if s == nil || s.Graph == nil || s.Machine == nil {
		return nil, fmt.Errorf("exec: nil schedule")
	}
	m := s.Machine
	g := s.Graph

	// Per-PE slot order comes from the schedule's index (shared,
	// pre-sorted; read-only here).
	byPE := make([][]sched.Slot, m.NumPE())
	for pe := 0; pe < m.NumPE(); pe++ {
		byPE[pe] = s.PESlots(pe)
	}
	// Derived finish time of each copy: keyed by task+PE (one copy of
	// a task per PE is the schedulers' invariant).
	type copyKey struct {
		task graph.NodeID
		pe   int
	}
	finish := map[copyKey]machine.Time{}
	done := map[copyKey]bool{}
	placed := map[copyKey]bool{}
	for _, sl := range s.Slots {
		placed[copyKey{sl.Task, sl.PE}] = true
	}
	// The schedule's message records name the producer copy each
	// consumer copy was routed from. Replaying that choice (instead of
	// greedily taking whichever copy happens to be simulated first)
	// is what makes the replay exact for duplication schedules, where
	// several copies of a producer coexist.
	type srcKey struct {
		from, to graph.NodeID
		v        string
		toPE     int
	}
	src := map[srcKey]int{}
	for _, msg := range s.Msgs {
		src[srcKey{msg.From, msg.To, msg.Var, msg.ToPE}] = msg.FromPE
	}
	idx := make([]int, m.NumPE()) // next slot to run per PE
	procFree := make([]machine.Time, m.NumPE())

	tr := &trace.Trace{Label: "simulated:" + s.Algorithm}
	total := len(s.Slots)
	executed := 0
	for executed < total {
		progress := false
		for pe := 0; pe < m.NumPE(); pe++ {
			for idx[pe] < len(byPE[pe]) {
				sl := byPE[pe][idx[pe]]
				// All inputs must be producible: every predecessor needs
				// some finished copy.
				start := procFree[pe]
				ready := true
				type feed struct {
					arc  graph.Arc
					from copyKey
					at   machine.Time
				}
				var feeds []feed
				for _, a := range g.PredArcs(sl.Task) {
					bestAt := machine.Time(-1)
					var bestKey copyKey
					if q, ok := src[srcKey{a.From, sl.Task, a.Var, pe}]; ok {
						// Wait for the copy the schedule routed from.
						k := copyKey{a.From, q}
						if done[k] {
							bestAt, bestKey = finish[k]+m.CommTime(a.Words, q, pe), k
						}
					} else if placed[copyKey{a.From, pe}] {
						// No message recorded: the schedule fed this arc
						// from the co-located copy.
						k := copyKey{a.From, pe}
						if done[k] {
							bestAt, bestKey = finish[k], k
						}
					} else {
						// Hand-built schedule with no message records:
						// fall back to the earliest-arriving finished copy.
						for q := 0; q < m.NumPE(); q++ {
							k := copyKey{a.From, q}
							if !done[k] {
								continue
							}
							at := finish[k] + m.CommTime(a.Words, q, pe)
							if bestAt < 0 || at < bestAt {
								bestAt, bestKey = at, k
							}
						}
					}
					if bestAt < 0 {
						ready = false
						break
					}
					feeds = append(feeds, feed{arc: a, from: bestKey, at: bestAt})
					if bestAt > start {
						start = bestAt
					}
				}
				if !ready {
					break // this PE is blocked on a not-yet-simulated producer
				}
				end := start + m.ExecTime(g.Node(sl.Task).Work, pe)
				k := copyKey{sl.Task, pe}
				finish[k] = end
				done[k] = true
				procFree[pe] = end
				tr.Add(trace.Event{Kind: trace.TaskStart, At: start, Task: sl.Task, PE: pe, Dup: sl.Dup})
				tr.Add(trace.Event{Kind: trace.TaskEnd, At: end, Task: sl.Task, PE: pe, Dup: sl.Dup})
				sort.Slice(feeds, func(i, j int) bool { return feeds[i].arc.Var < feeds[j].arc.Var })
				for _, f := range feeds {
					if f.from.pe != pe {
						tr.Add(trace.Event{Kind: trace.MsgSend, At: finish[f.from], Task: f.arc.From, PE: f.from.pe, Var: f.arc.Var, Peer: pe})
						tr.Add(trace.Event{Kind: trace.MsgRecv, At: f.at, Task: f.arc.From, PE: pe, Var: f.arc.Var, Peer: f.from.pe})
					}
				}
				idx[pe]++
				executed++
				progress = true
			}
		}
		if !progress {
			return nil, fmt.Errorf("exec: simulation deadlock — schedule's per-PE order is not consistent with precedence")
		}
	}
	tr.Sort()
	return tr, nil
}

// Predicted converts the schedule's own times into a trace without
// re-deriving anything, for rendering exactly what the scheduler
// decided (e.g. MH's contention-aware times).
func Predicted(s *sched.Schedule) *trace.Trace {
	tr := &trace.Trace{Label: "predicted:" + s.Algorithm}
	for _, sl := range s.Slots {
		tr.Add(trace.Event{Kind: trace.TaskStart, At: sl.Start, Task: sl.Task, PE: sl.PE, Dup: sl.Dup})
		tr.Add(trace.Event{Kind: trace.TaskEnd, At: sl.Finish, Task: sl.Task, PE: sl.PE, Dup: sl.Dup})
	}
	for _, msg := range s.Msgs {
		tr.Add(trace.Event{Kind: trace.MsgSend, At: msg.Send, Task: msg.From, PE: msg.FromPE, Var: msg.Var, Peer: msg.ToPE})
		tr.Add(trace.Event{Kind: trace.MsgRecv, At: msg.Recv, Task: msg.From, PE: msg.ToPE, Var: msg.Var, Peer: msg.FromPE})
	}
	tr.Sort()
	return tr
}
