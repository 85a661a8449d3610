package exec

import (
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// worker owns one simulated processor during a run. Its share of the
// compiled era is installed at session construction for era 0 and
// replaced by the coordinator at each recovery barrier (see assign).
type worker struct {
	pe     int
	runner *Runner
	sched  *sched.Schedule
	interp pits.Interp // reused by every slot; reseeded per task
	ctrl   *controller
	inbox  *mailbox
	// awaiting is the message a slot waits for (nil otherwise): the raw
	// material of a deadlock report. receive stores it before the take
	// that can leave the busy count, so a quiet session always names it.
	awaiting atomic.Pointer[awaited]

	// Per-era assignment.
	plan   *eraPlan // read-only, and for era 0 shared with other runs
	prog   *peProg  // this processor's share of it
	cursor int
	// gathered counts the cursor slot's inputs bound so far, and
	// dataReady is the latest virtual arrival among them: a slot that
	// waits for a message is re-entered where it stopped.
	gathered  int
	dataReady machine.Time
	resends   []sendPlan   // surviving results still to re-deliver at era start
	arrived   []arrival    // this era's inbound messages, by ordinal
	vars      []pits.Value // this era's slot array: each slot's variables, from its base on
	epoch     int64
	er        *era

	events  []trace.Event
	outputs pits.Env                // qualified "task.var" external outputs
	exports map[string]graph.NodeID // unqualified external output -> exporting task
	printed []string
	err     error
	dead    bool // crashed by fault injection; results discarded

	clock    machine.Time                  // virtual-time clock (VirtualTime mode)
	local    map[graph.NodeID][]pits.Value // results of tasks executed here, numbered by their layouts
	executed int                           // tasks executed here, across eras (crash counter)
	seqLocal uint64                        // low bits of this sender's message sequence numbers
	// flushOwed is set while the current burst of sends has handed the
	// remote plane a message it has not flushed yet; flushes counts the
	// bursts that did.
	flushOwed bool
	flushes   int64
}

// arrival is what a worker keeps of one inbound message of its era once
// a copy is admitted — its sequence number is what later copies are
// judged by — and whether a slot has consumed it yet.
type arrival struct {
	val    pits.Value
	at     machine.Time // virtual arrival (VirtualTime mode)
	seq    uint64
	fromPE int32
	state  uint8 // 0 until admitted, then stashed, then consumed
}

const (
	stashed = 1 + iota
	consumed
)

// assign installs the worker's share of a compiled era, with its zeroed
// arrivals and variables. The stash and the duplicate tracking of the
// era before belong to that era and go; the event log grows, once, by
// what the new era will add (for era 0 the room is already there: the
// worker's stretch of the session's log).
func (w *worker) assign(p *eraPlan, epoch int64, arrived []arrival, vars []pits.Value) {
	w.plan, w.prog, w.cursor, w.gathered, w.dataReady, w.epoch = p, &p.pes[w.pe], 0, 0, 0, epoch
	w.resends, w.arrived, w.vars = w.prog.resends, arrived, vars
	w.events = slices.Grow(w.events, w.prog.events)
}

// varAt returns a result's variable v: nil if unset, or if the result has
// no variable v.
func varAt(vals []pits.Value, v int32) pits.Value {
	if v < 0 || int(v) >= len(vals) {
		return nil
	}
	return vals[v]
}

// wstatus is what stopped one step.
type wstatus int

const (
	wsFinished wstatus = iota // slot list complete
	wsBlocked                 // a slot waits for a message that has not come
	wsPaused                  // recovery barrier reached at a slot boundary
	wsCrashed                 // injected crash fired
	wsError                   // real failure
)

// run is the worker goroutine: step through the current assignment,
// and wait whenever a step stops short. The wait is the one place a
// worker blocks, on its mailbox's wake-up channel alone: a put leaves a
// token, and the barrier, the next era and the run's end rouse every
// hosted mailbox (see controller.rouse). After each wake-up the worker
// reads the run's state. A blocked worker steps again on any wake-up;
// one through its list or parked only in the next era. The barrier
// parks a worker, and the run's end ends it, a blocked one with its
// wait as the error. A finished or parked worker takes nothing from its
// mailbox: the take that found it empty would leave the busy count,
// which such a worker has already left, or is held in by the barrier.
// The local store is built at session construction (not here) so a
// session started mid-run can install imported state before the
// goroutine launches.
func (w *worker) run() error {
	for {
		w.er = w.ctrl.era.Load()
		st, ord, err := w.step()
		switch st {
		case wsError:
			return err
		case wsCrashed:
			w.dead = true
			w.ctrl.crashed.Store(true)
			w.ctrl.retire()
			w.ctrl.post(wevent{pe: w.pe})
			return nil
		case wsFinished:
			w.ctrl.retire()
		case wsPaused:
			w.park()
		}
		for again := false; !again; {
			<-w.inbox.ready
			switch {
			case w.ctrl.ended.Load() != 0:
				if st == wsBlocked {
					due := &w.prog.in[ord]
					return fmt.Errorf("task %s: %w while waiting for %s:%s from %s",
						w.prog.slots[w.cursor].Task, errAborted, due.key.to, due.key.v, due.key.from)
				}
				return nil
			case st == wsPaused:
				again = w.ctrl.era.Load() != w.er
			case w.er.paused.Load():
				if st == wsFinished {
					w.ctrl.busy.Add(1) // the next era hands out a new list
				}
				st = wsPaused
				w.park()
			default:
				again = st == wsBlocked
			}
		}
	}
}

// park reports the worker at the recovery barrier, waiting for no
// message: the coordinator reads its state once every live worker has.
func (w *worker) park() {
	w.awaiting.Store(nil)
	w.ctrl.post(wevent{w.pe, true})
}

// step runs the worker's slot list from its cursor until a slot needs a
// message that has not come, and never blocks: the inbox gives only what
// it already holds. It returns what stopped it, and for wsBlocked the
// ordinal of the message the slot waits for. The era's re-sends of
// surviving results go first.
func (w *worker) step() (wstatus, int32, error) {
	for _, sp := range w.resends {
		k := w.plan.key(sp)
		vals, ok := w.local[k.from]
		if !ok {
			return wsError, 0, fmt.Errorf("recovery resend: no local result for task %s", k.from)
		}
		val := varAt(vals, sp.v)
		if val == nil {
			return wsError, 0, fmt.Errorf("recovery resend: task %s result lacks %q", k.from, k.v)
		}
		if err := w.send(sp, val, w.clock); err != nil {
			return wsError, 0, err
		}
	}
	// The re-send burst precedes the slot loop: peers waiting on
	// surviving results must not wait out our first (possibly long) slot.
	w.endBurst()
	w.resends = nil

	for w.cursor < len(w.prog.slots) {
		sl := &w.prog.slots[w.cursor]
		if w.gathered == 0 {
			if w.ctrl.faults.crashNow(w.pe, w.executed) {
				w.events = append(w.events, trace.Event{Kind: trace.FaultInjected, At: w.ctrl.stamp(w.clock),
					Task: sl.Task, PE: w.pe, Peer: w.pe, Note: "crash"})
				return wsCrashed, 0, nil
			}
			if w.er.paused.Load() {
				return wsPaused, 0, nil
			}
		}
		if ord, err := w.gather(sl); err != nil {
			return wsError, 0, err
		} else if ord >= 0 {
			return wsBlocked, ord, nil
		}
		if err := w.runSlot(sl); err != nil {
			return wsError, 0, err
		}
		w.cursor, w.gathered, w.dataReady = w.cursor+1, 0, 0
		w.executed++
	}
	return wsFinished, 0, nil
}

// gather binds the slot's inputs from where it last stopped, each
// unaliased on the way in: a routine may write into its vectors, and
// they are the producer's (or the caller's) own. External inputs come
// from the runner's global data (validated up front by Run; kept as
// defense in depth). Arc inputs come from the local store when the
// producer ran here, else from a received message. It returns the
// ordinal of the first message that has not come, or -1 once every
// input is bound.
func (w *worker) gather(sl *slotProg) (int32, error) {
	vars := w.vars[sl.base : sl.base+len(sl.names)]
	for ; w.gathered < len(sl.ins); w.gathered++ {
		in := &sl.ins[w.gathered]
		var val pits.Value
		switch {
		case in.from == "":
			var ok bool
			if val, ok = w.runner.Inputs[in.name]; !ok {
				return -1, fmt.Errorf("task %s: missing external input %q", sl.Task, in.name)
			}
		case in.ord >= 0:
			a, err := w.receive(in.ord)
			if err != nil {
				return -1, fmt.Errorf("task %s: %w", sl.Task, err)
			}
			if a == nil {
				return in.ord, nil
			}
			val, w.dataReady = a.val, max(w.dataReady, a.at)
		default:
			prod, ok := w.local[in.from]
			if !ok {
				return -1, fmt.Errorf("task %s: input %q from %s neither local nor scheduled as a message",
					sl.Task, in.name, in.from)
			}
			if val = varAt(prod, in.pv); val == nil {
				return -1, fmt.Errorf("task %s: producer %s did not define %q", sl.Task, in.from, in.name)
			}
		}
		vars[in.v] = pits.Unalias(val)
	}
	return -1, nil
}

// runSlot executes one scheduled task copy whose inputs are gathered:
// interpret the routine, deliver scheduled messages, and export external
// outputs from the primary copy.
func (w *worker) runSlot(sl *slotProg) error {
	vars := w.vars[sl.base : sl.base+len(sl.names) : sl.base+len(sl.names)]
	start := w.ctrl.stamp(max(w.clock, w.dataReady))
	w.events = append(w.events, trace.Event{Kind: trace.TaskStart, At: start, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	w.interp.Seed = sl.seed
	if err := w.interp.Exec(sl.prog, vars); err != nil {
		return fmt.Errorf("task %s: %w", sl.Task, err)
	}
	finish := w.ctrl.stamp(start + w.sched.Machine.ExecTime(w.interp.Ops(), w.pe))
	if w.runner.VirtualTime {
		w.clock = finish
	}
	w.events = append(w.events, trace.Event{Kind: trace.TaskEnd, At: finish, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	for _, line := range w.interp.Output() {
		w.printed = append(w.printed, string(sl.Task)+": "+line)
	}
	w.local[sl.Task] = vars

	// Deliver scheduled messages from this copy.
	for _, sp := range sl.sends {
		val := varAt(vars, sp.v)
		if val == nil {
			k := w.plan.key(sp)
			return fmt.Errorf("task %s: routine did not produce %q needed by %s", sl.Task, k.v, k.to)
		}
		if err := w.send(sp, val, finish); err != nil {
			return fmt.Errorf("task %s: %w", sl.Task, err)
		}
	}
	w.endBurst() // the slot boundary ends its send burst

	// External outputs from the primary copy only (duplicates are
	// communication surrogates, not result owners). Only the qualified
	// "task.var" key is written here; Run merges the unqualified names
	// and rejects collisions between tasks.
	for _, out := range sl.outs {
		val := varAt(vars, out.v)
		if val == nil {
			return fmt.Errorf("task %s: routine did not produce external output %q", sl.Task, out.name)
		}
		w.outputs[out.qual] = val
		w.exports[out.name] = sl.Task
	}
	return nil
}

// send transports one scheduled delivery, applying any injected faults
// and deciding once, from them, which copies go out (see transmit). In
// virtual time the message leaves at the given model time and arrives
// CommTime later; a delay fault moves only that stamp, and holds the
// copies back on the wall clock only in a wall-clock run.
func (w *worker) send(sp sendPlan, val pits.Value, at machine.Time) error {
	// Sequence numbers are per-sender (PE in the high bits) so that
	// assignment does not depend on cross-goroutine interleaving:
	// virtual-time runs replay with identical traces.
	w.seqLocal++
	k := w.plan.key(sp)
	m := xmsg{ord: sp.ord, val: val, fromPE: w.pe,
		seq: uint64(w.pe+1)<<32 | w.seqLocal, epoch: w.epoch}
	if w.runner.VirtualTime {
		m.at = at + w.sched.Machine.CommTime(sp.words, w.pe, sp.toPE)
	}
	sendAt := w.ctrl.stamp(at)
	if w.ctrl.checksums {
		m.sum = checksum(val)
	}
	w.events = append(w.events, trace.Event{Kind: trace.MsgSend, At: sendAt,
		Task: k.from, PE: w.pe, Var: k.v, Peer: sp.toPE, Seq: m.seq})
	copies, corrupted := 1, false
	var wallDelay time.Duration
	for _, kind := range w.ctrl.faults.onSend(k) {
		w.events = append(w.events, trace.Event{Kind: trace.FaultInjected, At: sendAt,
			Task: k.from, PE: w.pe, Var: k.v, Peer: sp.toPE, Seq: m.seq, Note: kind.String()})
		switch kind {
		case FaultDrop:
			copies = 0
		case FaultDup:
			copies *= 2 // a dropped copy leaves none to duplicate
		case FaultDelay:
			d := w.ctrl.faults.delayOf(k)
			m.at += d
			if !w.runner.VirtualTime {
				wallDelay = time.Duration(d) * time.Microsecond
			}
		case FaultCorrupt:
			m.val, corrupted = corruptValue(val), true
		}
	}
	// Without Retry a corrupted copy fails the run at its receiver.
	resend := w.ctrl.retry && (copies == 0 || corrupted)
	handed, err := w.ctrl.transmit(m, k, val, sp.toPE, copies, resend, wallDelay)
	w.flushOwed = w.flushOwed || handed > 0
	return err
}

// endBurst ends a burst of sends: if any of them handed the remote
// plane a message, the plane flushes, so what it holds leaves now.
func (w *worker) endBurst() {
	if w.flushOwed {
		w.flushOwed = false
		w.flushes++
		w.ctrl.plane.FlushRemote()
	}
}

// admit vets one delivery: stale-era and benign duplicate copies are
// discarded, a corrupted payload is dropped (the run's error without
// retry; with it, the resent original follows it), and a second delivery
// of an admitted message with a different sequence number is rejected as
// a schedule bug. A fresh copy is stashed under its ordinal. The era
// check comes first: the ordinal of a stale copy, and the name of one
// from another process, mean nothing in this era's plan.
func (w *worker) admit(m xmsg) error {
	if m.epoch != w.epoch {
		return nil
	}
	if m.name != nil {
		ord, scheduled := w.prog.ords[*m.name]
		if !scheduled {
			// This era schedules no such message for this processor; only
			// a peer process can send one. Dropped: nothing would ever
			// read it.
			return nil
		}
		m.ord, m.name = ord, nil
	}
	if w.ctrl.checksums && m.sum != 0 && m.sum != checksum(m.val) {
		if w.ctrl.retry {
			return nil
		}
		return fmt.Errorf("message %s from PE %d corrupted in transit", w.prog.in[m.ord].key, m.fromPE)
	}
	a := &w.arrived[m.ord]
	if a.state != 0 {
		if a.seq == m.seq {
			return nil // the resent original or an injected duplicate of the same send
		}
		return fmt.Errorf("duplicate delivery of %s (sequence %d after %d): schedule sends it twice",
			w.prog.in[m.ord].key, m.seq, a.seq)
	}
	*a = arrival{val: m.val, at: m.at, seq: m.seq, fromPE: int32(m.fromPE), state: stashed}
	return nil
}

// receive consumes inbound message ord, admitting (and so stashing)
// what the inbox holds until it is stashed; nil means the inbox ran dry
// first, and the worker waits. The take that finds the inbox empty
// leaves the session's busy count, so a message that never comes leaves
// the session quiet, and its report names this receive.
func (w *worker) receive(ord int32) (*arrival, error) {
	due, a := &w.prog.in[ord], &w.arrived[ord]
	if a.state != stashed {
		w.awaiting.Store(due) // a pointer into the plan: waiting allocates nothing
		for a.state != stashed {
			m, ok, last := w.inbox.take()
			if !ok {
				if last {
					w.ctrl.quiesce()
				}
				return nil, nil
			}
			if err := w.admit(m); err != nil {
				return nil, err
			}
		}
		w.awaiting.Store(nil)
	}
	a.state = consumed
	w.events = append(w.events, trace.Event{Kind: trace.MsgRecv, At: w.ctrl.stamp(a.at), Task: due.key.from, PE: w.pe, Var: due.key.v, Peer: int(a.fromPE), Seq: a.seq})
	return a, nil
}
