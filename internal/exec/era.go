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
// its program, seed, numbered variables, and the variable each input,
// send and output binds, each
// processor the number of trace events it will log. A compiled era is
// read-only, so every run of a cached schedule shares one era 0; only
// the spare logs and arrays parked beside it change hands (see spares).

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
// named by the message's ordinal on the receiving processor; v is the
// variable it carries, numbered in the producer's layout.
type sendPlan struct {
	ord, v int32
	toPE   int
	words  int64
}

// slotProg is one scheduled task copy with everything resolved. Its
// variables are numbered by the task's layout, and live in its
// processor's slot array from base on.
type slotProg struct {
	sched.Slot
	prog  *pits.Program
	seed  int64
	names []string // the task's layout
	base  int
	ins   []input // external inputs, then arc inputs
	sends []sendPlan
	outs  []output // the external outputs a primary copy exports
}

// input is one of a slot's inputs, bound to its variable v: an external
// input (no producer), bound by name from Runner.Inputs; a message, ord
// its inbound ordinal; or else (ord -1) the result of producer from,
// which ran here, whose variable pv holds it.
type input struct {
	from       graph.NodeID
	name       string
	ord, v, pv int32
}

// output is an external output, its qualified "task.var" name and the
// variable holding it.
type output struct {
	name, qual string
	v          int32
}

// layout numbers a task's variables: its routine's own (Program.Vars),
// then the inputs the routine never names. It is a function of the design
// alone, so a result kept in a local store, or imported from another
// worker's checkpoint, is read by the same numbers in every era. A
// routine-less task is a no-op placeholder: legal in scheduling
// studies, and at run time it produces nothing.
func layout(g *graph.Graph, flat *graph.Flat, t graph.NodeID) (*pits.Program, []string, error) {
	prog := noRoutine
	if n := g.Node(t); n != nil && n.Routine != "" {
		var err error
		if prog, err = pits.Parse(n.Routine); err != nil {
			return nil, nil, err
		}
	}
	names := slices.Clip(prog.Vars())
	add := func(v string) {
		if !slices.Contains(names, v) {
			names = append(names, v)
		}
	}
	for _, v := range flat.ExternalIn[t] {
		add(v)
	}
	for _, a := range g.PredArcs(t) {
		add(a.Var)
	}
	return prog, names, nil
}

// varOf numbers v in a layout, or -1: the task never holds it.
func varOf(names []string, v string) int32 { return int32(slices.Index(names, v)) }

// ordinals maps a processor's inbound messages from name to ordinal: the
// compiler's own index, and afterwards what admits a delivery that
// arrives by name from another process (Session.Deliver).
type ordinals map[msgKey]int32

// peProg is one processor's share of an era.
type peProg struct {
	slots   []slotProg
	vars    int       // the length of the slots' slot array
	in      []awaited // inbound messages, by ordinal
	ords    ordinals
	resends []sendPlan // surviving results to re-deliver at era start
	events  int        // trace events a fault-free pass over the era logs
}

// eraPlan is a compiled era; flat is the design it was compiled against.
type eraPlan struct {
	flat *graph.Flat
	pes  []peProg
}

// spares is what a schedule keeps for its next runs, parked on it (never
// in this package: a table here would pin every schedule a server ever
// ran): its era 0, compiled once a session needs it, and the runs' logs
// and era-0 arrays handed back (see Session.Release and Result.Release),
// no more of them than ever ran at once. A fleet's coordinator takes and
// gives back its logs here too, without compiling the era.
type spares struct {
	mu   sync.Mutex
	era  *eraPlan
	runs []spareRun
}

// spareRun is one run's log and, when a session hosted its processors,
// the slabs its workers carved their era-0 arrivals and variables from.
type spareRun struct {
	log     []trace.Event
	arrived []arrival
	vars    []pits.Value
}

// sparesOf returns the schedule's spares, parking them on first use.
func sparesOf(s *sched.Schedule) *spares {
	if sp, _ := s.Derived().(*spares); sp != nil {
		return sp
	}
	s.SetDerived(&spares{})
	return s.Derived().(*spares)
}

// take returns a run whose log holds n events, resliced so that its
// capacity is n (controller.eventLog keeps a log only when its workers
// filled it exactly): a released one with the room, else any released
// one with a new log in place of its short one, else a new one. So the
// list never holds more runs than ran at once.
func (sp *spares) take(n int) spareRun {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var r spareRun
	i := slices.IndexFunc(sp.runs, func(r spareRun) bool { return cap(r.log) >= n })
	if i < 0 {
		i = len(sp.runs) - 1
	}
	if i >= 0 {
		r = sp.runs[i]
		sp.runs = slices.Delete(sp.runs, i, i+1)
	}
	if cap(r.log) < n {
		r.log = make([]trace.Event, n)
	}
	return spareRun{r.log[:n:n], r.arrived, r.vars}
}

func (sp *spares) put(r spareRun) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.runs = append(sp.runs, r)
}

// zeroed returns n zeroed elements of slab, or n new ones when it is
// too short.
func zeroed[T any](slab []T, n int) []T {
	if cap(slab) < n {
		return make([]T, n)
	}
	slab = slab[:n]
	clear(slab)
	return slab
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
	varIn := func(t graph.NodeID, v string) int32 {
		_, names, _ := layout(s.Graph, flat, t)
		return varOf(names, v)
	}
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
		sp := sendPlan{ord: int32(len(to.in)), v: varIn(m.From, m.Var), toPE: m.ToPE, words: m.Words}
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
			prog, names, err := layout(s.Graph, flat, sl.Task)
			if err != nil {
				return nil, fmt.Errorf("exec: task %s: %w", sl.Task, err)
			}
			sp := &pp.slots[i]
			*sp = slotProg{Slot: sl, prog: prog, seed: taskSeed(sl.Task), names: names, base: pp.vars,
				sends: sends[taskCopy{pe, sl.Task}]}
			pp.vars += len(names)
			pp.events += 2 + len(sp.sends)
			for _, v := range flat.ExternalIn[sl.Task] {
				sp.ins = append(sp.ins, input{name: v, ord: -1, v: varOf(names, v)})
			}
			for _, a := range s.Graph.PredArcs(sl.Task) {
				in := input{a.From, a.Var, -1, varOf(names, a.Var), varIn(a.From, a.Var)}
				if ord, isMsg := pp.ords[msgKey{a.From, sl.Task, a.Var}]; isMsg {
					pp.events++
					in.ord = ord
				}
				sp.ins = append(sp.ins, in)
			}
			if !sl.Dup {
				for _, v := range flat.ExternalOut[sl.Task] {
					sp.outs = append(sp.outs, output{v, string(sl.Task) + "." + v, varOf(names, v)})
				}
			}
		}
	}
	return p, nil
}

// era0 returns the schedule's own era. It is compiled at the schedule's
// first run and parked with its spares, so later runs of a cached
// schedule share it and it is freed with its cache entry.
func era0(s *sched.Schedule, flat *graph.Flat) (*eraPlan, error) {
	sp := sparesOf(s)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.era != nil && sp.era.flat == flat {
		return sp.era, nil
	}
	slots := make([][]sched.Slot, s.Machine.NumPE())
	for pe := range slots {
		slots[pe] = s.PESlots(pe)
	}
	p, err := compileEra(s, flat, slots, s.Msgs, nil)
	if err == nil && sp.era == nil {
		sp.era = p
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
