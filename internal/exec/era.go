package exec

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the era compiler: the one place a (slots, messages,
// surviving results) triple — the schedule itself for era 0, a
// ResumePlan's lists for every recovery era — becomes what workers
// execute. Everything only the triple determines is settled here, once:
// each message gets an ordinal on its receiving processor, each slot
// its program, seed, resolved inputs, sends and output names, each
// processor the number of trace events it will log. A compiled era is
// read-only, so every run of a cached schedule shares one era 0; only
// its spare logs change hands (see Session.Release).

// msgKey identifies a scheduled message: producer task, consumer task,
// variable. On the in-process message path it is read back from the
// era (trace events, reports, fault matching) and never looked up.
type msgKey struct {
	from graph.NodeID
	to   graph.NodeID
	v    string
}

// String renders the key as the edge diagnostics name: "from->to:var".
func (k msgKey) String() string { return fmt.Sprintf("%s->%s:%s", k.from, k.to, k.v) }

// awaited is a scheduled message and the processor due to send it.
type awaited struct {
	key    msgKey
	fromPE int
}

// sendPlan is one cross-processor delivery a producer copy must make,
// named by the message's ordinal on the receiving processor.
type sendPlan struct {
	ord   int32
	toPE  int
	words int64
}

// slotProg is one scheduled task copy with everything resolved.
type slotProg struct {
	sched.Slot
	prog  *pits.Program
	seed  int64
	extIn []string    // external inputs, bound by name from Runner.Inputs
	preds []graph.Arc // arc inputs (the graph's own slice) ...
	ins   []int32     // ... each an inbound ordinal, or -1: the producer ran here
	sends []sendPlan
	// outs are the external outputs a primary copy exports, qual their
	// qualified "task.var" names.
	outs, qual []string
}

// ordinals maps a processor's inbound messages from name to ordinal: the
// compiler's own index, and afterwards what admits a delivery that
// arrives by name from another process (Session.Deliver).
type ordinals map[msgKey]int32

// peProg is one processor's share of an era.
type peProg struct {
	slots   []slotProg
	in      []awaited // inbound messages, by ordinal
	ords    ordinals
	resends []sendPlan // surviving results to re-deliver at era start
	events  int        // trace events a fault-free pass over the era logs
}

// eraPlan is a compiled era; flat is the design it was compiled against.
type eraPlan struct {
	flat *graph.Flat
	pes  []peProg

	mu    sync.Mutex
	spare [][]trace.Event // released session logs: no more than ever ran at once
}

// takeLog returns the event log of a session of this era that logs n
// events: a released one with the room, resliced so that its capacity
// is n (controller.eventLog keeps a log only when its workers filled it
// exactly), or a new one.
func (p *eraPlan) takeLog(n int) []trace.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, log := range p.spare {
		if cap(log) >= n {
			p.spare = slices.Delete(p.spare, i, i+1)
			return log[:n:n]
		}
	}
	return make([]trace.Event, n)
}

// key names the message a send plan delivers.
func (p *eraPlan) key(sp sendPlan) *msgKey { return &p.pes[sp.toPE].in[sp.ord].key }

var noRoutine = &pits.Program{}

// compileEra compiles one era for a machine of len(slots) processors:
// slots holds each processor's list in execution order, msgs the era's
// deliveries, and done maps surviving tasks to their holders — deliveries
// from them become era-start re-sends from the holder's local store
// instead of sends attached to a task execution.
func compileEra(s *sched.Schedule, flat *graph.Flat, slots [][]sched.Slot, msgs []sched.Msg, done map[graph.NodeID]int) (*eraPlan, error) {
	type taskCopy struct {
		pe   int
		task graph.NodeID
	}
	numPE := len(slots)
	p := &eraPlan{flat: flat, pes: make([]peProg, numPE)}
	for pe := range p.pes {
		p.pes[pe].ords = ordinals{}
	}
	sends := map[taskCopy][]sendPlan{}
	for _, m := range msgs {
		if m.FromPE == m.ToPE {
			continue
		}
		k := msgKey{m.From, m.To, m.Var}
		if m.FromPE < 0 || m.FromPE >= numPE || m.ToPE < 0 || m.ToPE >= numPE {
			return nil, fmt.Errorf("exec: schedule sends %s from PE %d to PE %d of %d processors", k, m.FromPE, m.ToPE, numPE)
		}
		to := &p.pes[m.ToPE]
		if _, dup := to.ords[k]; dup {
			return nil, fmt.Errorf("exec: schedule records duplicate delivery of %s to PE %d", k, m.ToPE)
		}
		sp := sendPlan{ord: int32(len(to.in)), toPE: m.ToPE, words: m.Words}
		to.ords[k] = sp.ord
		to.in = append(to.in, awaited{k, m.FromPE})
		if _, held := done[m.From]; held {
			p.pes[m.FromPE].resends = append(p.pes[m.FromPE].resends, sp)
		} else {
			c := taskCopy{m.FromPE, m.From}
			sends[c] = append(sends[c], sp)
		}
	}
	for pe := range p.pes {
		pp := &p.pes[pe]
		pp.slots = make([]slotProg, len(slots[pe]))
		pp.events = len(pp.resends)
		for i, sl := range slots[pe] {
			sp := &pp.slots[i]
			*sp = slotProg{Slot: sl, prog: noRoutine, seed: taskSeed(sl.Task), extIn: flat.ExternalIn[sl.Task],
				preds: s.Graph.PredArcs(sl.Task), sends: sends[taskCopy{pe, sl.Task}]}
			// A routine-less task is a no-op placeholder: legal in
			// scheduling studies, and at run time it produces nothing.
			if n := s.Graph.Node(sl.Task); n != nil && n.Routine != "" {
				var err error
				if sp.prog, err = pits.Parse(n.Routine); err != nil {
					return nil, fmt.Errorf("exec: task %s: %w", sl.Task, err)
				}
			}
			pp.events += 2 + len(sp.sends)
			sp.ins = make([]int32, len(sp.preds))
			for j, a := range sp.preds {
				ord, isMsg := pp.ords[msgKey{a.From, sl.Task, a.Var}]
				if isMsg {
					pp.events++
				} else {
					ord = -1
				}
				sp.ins[j] = ord
			}
			if !sl.Dup {
				sp.outs = flat.ExternalOut[sl.Task]
				for _, v := range sp.outs {
					sp.qual = append(sp.qual, string(sl.Task)+"."+v)
				}
			}
		}
	}
	return p, nil
}

// era0 returns the schedule's own era. It is compiled at the schedule's
// first run and parked on the schedule (never in this package: a table
// here would pin every schedule a server ever ran), so later runs of a
// cached schedule share it and it is freed with its cache entry.
func era0(s *sched.Schedule, flat *graph.Flat) (*eraPlan, error) {
	if p, _ := s.Derived().(*eraPlan); p != nil && p.flat == flat {
		return p, nil
	}
	slots := make([][]sched.Slot, s.Machine.NumPE())
	for pe := range slots {
		slots[pe] = s.PESlots(pe)
	}
	p, err := compileEra(s, flat, slots, s.Msgs, nil)
	if err == nil {
		s.SetDerived(p)
	}
	return p, err
}

// eraOf compiles a recovery plan's era.
func eraOf(s *sched.Schedule, flat *graph.Flat, p *ResumePlan) (*eraPlan, error) {
	numPE := s.Machine.NumPE()
	slots := make([][]sched.Slot, numPE)
	for _, sl := range p.Slots {
		if sl.PE < 0 || sl.PE >= numPE {
			return nil, fmt.Errorf("exec: resume plan puts %s on PE %d of %d processors", sl.Task, sl.PE, numPE)
		}
		slots[sl.PE] = append(slots[sl.PE], sl)
	}
	return compileEra(s, flat, slots, p.Msgs, p.Done)
}
