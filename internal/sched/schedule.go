// Package sched implements the PPSE scheduling heuristics Banger uses
// to map a flattened PITL task graph onto a target machine, and the
// Schedule type (a Gantt chart plus message events) they produce.
//
// Implemented schedulers:
//
//   - Serial: every task on PE 0 (the speedup baseline).
//   - HLFET: highest level first with estimated times (Adam/Chandy/
//     Dickson) — static priority list scheduling.
//   - ETF: earliest task first (Hwang et al.) — dynamic greedy choice
//     of the (task, processor) pair that can start soonest.
//   - MH: the mapping heuristic of El-Rewini & Lewis (JPDC 1990), the
//     scheduler the paper's reference [1] names — ETF-style selection
//     with hop-by-hop message routing and per-link contention.
//   - DSH: Kruatrachue's duplication scheduling heuristic — list
//     scheduling that copies critical ancestors onto a processor to
//     erase communication delays.
//   - Pack: grain packing by linear clustering — chains of heavy
//     communication are merged into grains, grains are load-balanced
//     across processors, then times are assigned ETF-style.
//   - BSP: BSP-ordered superstep scheduling (after Papp, Anegg &
//     Yzelman) — precedence levels become supersteps, placed in order;
//     no start waits for a barrier.
//
// Every scheduler starts a slot once its processor is free and its
// inputs have arrived. Every one but MH is contention-free: a message
// arrives at send + CommTime. MH routes messages over links it books
// in commit order. Schedule.Deliver is that arrival rule for either
// kind. exec.Simulate replays the record with it, so every scheduler's
// times replay exactly. A replan after a crash, drain or join (Replan)
// is ETF on the same list builder.
//
// Each Schedule call runs on its caller's goroutine with scratch carved
// from a pooled arena; a greedy step is too little work to shard (see
// docs/SCHEDULING.md, "Why the scan is serial"). Concurrency lives one
// level up: Compare, SpeedupCurve and a server's concurrent requests.
package sched

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Slot is one task occurrence on a processor: one bar of a Gantt chart.
type Slot struct {
	Task   graph.NodeID
	PE     int
	Start  machine.Time
	Finish machine.Time
	// Dup marks duplicated copies inserted by DSH; every task has
	// exactly one slot with Dup == false.
	Dup bool
}

// Msg is one inter-processor message: data for variable Var produced by
// task From (on FromPE) and consumed by task To (on ToPE). Send is when
// the message leaves the producer, Recv when the consumer may use it.
type Msg struct {
	Var    string
	From   graph.NodeID
	To     graph.NodeID
	FromPE int
	ToPE   int
	Words  int64
	Send   machine.Time
	Recv   machine.Time
	Hops   int
}

// Schedule is the result of mapping a flat task graph onto a machine.
// Schedules are finalized by construction: every scheduler assembles
// slots in a private builder and creates the Schedule exactly once, so
// the derived views in idx never go stale. Mutating Slots or Msgs after
// any accessor has been called yields stale answers.
type Schedule struct {
	Graph     *graph.Graph // the flattened task graph that was scheduled
	Machine   *machine.Machine
	Algorithm string
	Slots     []Slot
	Msgs      []Msg

	idx atomic.Pointer[Index] // lazily-built derived views; see index.go
	// derived is one memo slot for what a consumer outside this package
	// builds from the finished schedule (the runner's compiled era); it
	// lives and dies with the schedule. See Derived and SetDerived.
	derived atomic.Pointer[any]
}

// Derived returns what SetDerived parked on the schedule, or nil.
func (s *Schedule) Derived() any {
	if v := s.derived.Load(); v != nil {
		return *v
	}
	return nil
}

// SetDerived parks v on the schedule unless something is already there:
// the first of racing callers wins, as with the index.
func (s *Schedule) SetDerived(v any) { s.derived.CompareAndSwap(nil, &v) }

// Finalize builds the schedule's derived views eagerly, so later
// accessor calls are pure loads. The lazy build is itself safe under
// concurrent first use (see index.go) — Finalize is an optimization,
// not a synchronization requirement.
func (s *Schedule) Finalize() { s.index() }

// Makespan returns the finish time of the last slot (0 for an empty
// schedule).
func (s *Schedule) Makespan() machine.Time {
	return s.index().makespan
}

// SlotsFor returns every slot (primary and duplicates) of the task, in
// Slots order, shared with the schedule (a task with one copy gets a
// one-element view of Slots): callers must not modify it.
func (s *Schedule) SlotsFor(t graph.NodeID) []Slot {
	idx := s.index()
	if cps, ok := idx.copies[t]; ok {
		return cps
	}
	if i, ok := idx.slotOf[t]; ok {
		return s.Slots[i : i+1 : i+1]
	}
	return nil
}

// PrimarySlot returns the non-duplicate slot of the task, or false.
func (s *Schedule) PrimarySlot(t graph.NodeID) (Slot, bool) {
	i, ok := s.index().slotOf[t]
	if !ok || s.Slots[i].Dup {
		return Slot{}, false
	}
	return s.Slots[i], true
}

// PESlots returns the slots on processor pe sorted by start time. The
// returned slice is shared with the schedule's index; callers must not
// modify it.
func (s *Schedule) PESlots(pe int) []Slot {
	idx := s.index()
	if pe < 0 || pe >= len(idx.byPE) {
		return nil
	}
	return idx.byPE[pe]
}

// BusyTime returns the total busy time of processor pe.
func (s *Schedule) BusyTime(pe int) machine.Time {
	idx := s.index()
	if pe < 0 || pe >= len(idx.busy) {
		return 0
	}
	return idx.busy[pe]
}

// OutTraffic returns the cross-processor messages processor pe
// originates and the words they carry.
func (s *Schedule) OutTraffic(pe int) (msgs int, words int64) {
	idx := s.index()
	if pe < 0 || pe >= len(idx.msgsOut) {
		return 0, 0
	}
	return idx.msgsOut[pe], idx.wordsOut[pe]
}

// UsedPEs returns how many processors run at least one slot.
func (s *Schedule) UsedPEs() int {
	return s.index().usedPEs
}

// SerialTime returns the time the design needs on one processor of this
// machine: per-task startup plus all work at PE 0's speed, no
// communication (co-located data is free).
func (s *Schedule) SerialTime() machine.Time {
	var total machine.Time
	for _, n := range s.Graph.Tasks() {
		total += s.Machine.ExecTime(n.Work, 0)
	}
	return total
}

// Speedup returns SerialTime/Makespan, the paper's speedup-prediction
// metric (Figure 3's right-hand chart).
func (s *Schedule) Speedup() float64 {
	mk := s.Makespan()
	if mk == 0 {
		return 1
	}
	return float64(s.SerialTime()) / float64(mk)
}

// Efficiency returns Speedup divided by the number of processors.
func (s *Schedule) Efficiency() float64 {
	return s.Speedup() / float64(s.Machine.NumPE())
}

// Utilization returns mean busy fraction across all processors over the
// makespan (0 for an empty schedule).
func (s *Schedule) Utilization() float64 {
	mk := s.Makespan()
	if mk == 0 {
		return 0
	}
	var busy machine.Time
	for _, b := range s.index().busy {
		busy += b
	}
	return float64(busy) / (float64(mk) * float64(s.Machine.NumPE()))
}

// CommVolume returns the number of cross-processor messages and the
// total words they carry.
func (s *Schedule) CommVolume() (msgs int, words int64) {
	for _, m := range s.Msgs {
		if m.FromPE != m.ToPE {
			msgs++
			words += m.Words
		}
	}
	return msgs, words
}

// Validate re-checks the schedule against the task graph and machine
// model, trusting nothing the scheduler did:
//
//   - every task has exactly one primary slot, on a valid processor;
//   - slot durations equal the machine's ExecTime for the task's work;
//   - no two slots on one processor overlap;
//   - every arc is satisfied: for every slot of the consuming task
//     there is some slot of the producing task such that either both
//     are co-located and producer finishes first, or the consumer
//     starts no earlier than producer finish plus the machine's
//     communication time for the arc's words over that hop distance.
//
// Contention-aware schedulers may delay messages beyond the contention-
// free communication time; Validate therefore checks lower bounds.
func (s *Schedule) Validate() error {
	var errs []error
	if s.Graph == nil || s.Machine == nil {
		return errors.New("schedule: missing graph or machine")
	}
	idx := s.index()
	// A processor outside the machine is reported once, and every check
	// that would index the machine by it is skipped.
	onMachine := func(pe int) bool { return pe >= 0 && pe < s.Machine.NumPE() }
	primary := map[graph.NodeID]int{}
	for _, sl := range s.Slots {
		if !onMachine(sl.PE) {
			errs = append(errs, fmt.Errorf("slot %s on invalid PE %d", sl.Task, sl.PE))
		}
		if s.Graph.Node(sl.Task) == nil {
			errs = append(errs, fmt.Errorf("slot for unknown task %q", sl.Task))
			continue
		}
		if !sl.Dup {
			primary[sl.Task]++
		}
		if sl.Start < 0 || sl.Finish < sl.Start {
			errs = append(errs, fmt.Errorf("slot %s has bad interval [%v,%v]", sl.Task, sl.Start, sl.Finish))
		}
		if !onMachine(sl.PE) {
			continue
		}
		want := s.Machine.ExecTime(s.Graph.Node(sl.Task).Work, sl.PE)
		if sl.Finish-sl.Start != want {
			errs = append(errs, fmt.Errorf("slot %s duration %v != ExecTime %v", sl.Task, sl.Finish-sl.Start, want))
		}
	}
	for _, n := range s.Graph.Tasks() {
		if primary[n.ID] != 1 {
			errs = append(errs, fmt.Errorf("task %q has %d primary slots, want 1", n.ID, primary[n.ID]))
		}
	}
	// Overlap check per PE over the index's pre-sorted slot lists.
	for pe, slots := range idx.byPE {
		for i := 1; i < len(slots); i++ {
			if slots[i].Start < slots[i-1].Finish {
				errs = append(errs, fmt.Errorf("PE %d: %s [%v,%v] overlaps %s [%v,%v]",
					pe, slots[i-1].Task, slots[i-1].Start, slots[i-1].Finish,
					slots[i].Task, slots[i].Start, slots[i].Finish))
			}
		}
	}
	// Precedence + communication: per-task map lookups instead of
	// per-arc scans over every slot.
	for _, a := range s.Graph.Arcs() {
		producers := s.SlotsFor(a.From)
		consumers := s.SlotsFor(a.To)
		if len(producers) == 0 || len(consumers) == 0 {
			errs = append(errs, fmt.Errorf("arc %s->%s: unscheduled endpoint", a.From, a.To))
			continue
		}
		for _, c := range consumers {
			if !onMachine(c.PE) {
				continue
			}
			satisfied := false
			for _, p := range producers {
				if !onMachine(p.PE) {
					continue
				}
				ready := p.Finish + s.Machine.CommTime(a.Words, p.PE, c.PE)
				if c.Start >= ready {
					satisfied = true
					break
				}
			}
			if !satisfied {
				errs = append(errs, fmt.Errorf("arc %s->%s: consumer slot on PE %d at %v starts before data can arrive",
					a.From, a.To, c.PE, c.Start))
			}
		}
	}
	// Message records must respect the lower-bound latency model.
	for _, m := range s.Msgs {
		if !onMachine(m.FromPE) || !onMachine(m.ToPE) {
			errs = append(errs, fmt.Errorf("msg %s->%s from PE %d to PE %d: a processor outside the machine",
				m.From, m.To, m.FromPE, m.ToPE))
			continue
		}
		if m.FromPE == m.ToPE {
			continue
		}
		lb := s.Machine.CommTime(m.Words, m.FromPE, m.ToPE)
		if m.Recv-m.Send < lb {
			errs = append(errs, fmt.Errorf("msg %s->%s: latency %v below model lower bound %v",
				m.From, m.To, m.Recv-m.Send, lb))
		}
	}
	return errors.Join(errs...)
}

// String renders a compact textual summary of the schedule.
func (s *Schedule) String() string {
	msgs, words := s.CommVolume()
	return fmt.Sprintf("%s on %s: makespan %v, speedup %.2f, efficiency %.2f, %d msgs (%d words)",
		s.Algorithm, s.Machine.Name, s.Makespan(), s.Speedup(), s.Efficiency(), msgs, words)
}
