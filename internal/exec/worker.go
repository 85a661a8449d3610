package exec

import (
	"errors"
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
	// awaiting is what a blocked receive is waiting for (nil
	// otherwise): the raw material of a deadlock report.
	awaiting atomic.Pointer[awaited]

	// Per-era assignment.
	plan    *eraPlan // read-only, and for era 0 shared with other runs
	prog    *peProg  // this processor's share of it
	cursor  int
	resends []sendPlan // surviving results still to re-deliver at era start
	arrived []arrival  // this era's inbound messages, by ordinal
	epoch   int64
	er      *era

	events  []trace.Event
	outputs pits.Env                // qualified "task.var" external outputs
	exports map[string]graph.NodeID // unqualified external output -> exporting task
	printed []string
	err     error
	dead    bool // crashed by fault injection; results discarded

	clock    machine.Time              // virtual-time clock (VirtualTime mode)
	local    map[graph.NodeID]pits.Env // outputs of tasks executed here
	executed int                       // tasks executed here, across eras (crash counter)
	seqLocal uint64                    // low bits of this sender's message sequence numbers
	// flushOwed is set while the current burst of sends has handed the
	// remote plane a message it has not flushed yet; flushes counts the
	// bursts that did.
	flushOwed bool
	flushes   int64
}

// arrival is what a worker knows of one inbound message of its era: the
// admitted copy — its sequence number is what later copies are judged
// by — and whether a slot has consumed it yet.
type arrival struct {
	xmsg
	state uint8 // 0 until admitted, then stashed, then consumed
}

const (
	stashed = 1 + iota
	consumed
)

// assign installs the worker's share of a compiled era. The stash and
// the duplicate tracking of the era before belong to that era and go;
// the event log grows, once, by what the new era will add (for era 0
// the room is already there: the worker's stretch of the session's log).
func (w *worker) assign(p *eraPlan, epoch int64) {
	w.plan, w.prog, w.cursor, w.epoch = p, &p.pes[w.pe], 0, epoch
	w.resends = w.prog.resends
	w.arrived = make([]arrival, len(w.prog.in))
	w.events = slices.Grow(w.events, w.prog.events)
}

// errPaused marks a receive or slot interrupted by the recovery
// barrier, not a failure.
var errPaused = errors.New("paused for recovery")

// wstatus is the outcome of one execute() pass.
type wstatus int

const (
	wsFinished wstatus = iota // slot list complete
	wsPaused                  // recovery barrier reached mid-list
	wsCrashed                 // injected crash fired
	wsError                   // real failure
)

// run is the worker goroutine: execute the current assignment, then
// idle until the run completes or a recovery hands out a new one. The
// local store is built at session construction (not here) so a session
// started mid-run can install imported state before the goroutine
// launches.
func (w *worker) run() error {
	for {
		w.er = w.ctrl.era.Load()
		st, err := w.execute()
		switch st {
		case wsError:
			return err
		case wsCrashed:
			w.dead = true
			w.ctrl.crashed.Store(true)
			w.ctrl.retire()
			w.ctrl.post(wevent{pe: w.pe})
			return nil
		case wsPaused:
			if !w.park() {
				return nil
			}
		case wsFinished:
			w.ctrl.retire()
			select {
			case <-w.er.pause:
				w.ctrl.busy.Add(1) // the next era hands out a new list
				if !w.park() {
					return nil
				}
			case <-w.ctrl.finish:
				return nil
			case <-w.ctrl.done:
				return nil
			}
		}
	}
}

// park waits at the recovery barrier until the coordinator installs the
// next era (true) or the run aborts (false).
func (w *worker) park() bool {
	w.ctrl.post(wevent{w.pe, true})
	select {
	case <-w.er.resume:
		return true
	case <-w.ctrl.done:
		return false
	}
}

// execute runs the worker's current slot list from its cursor.
func (w *worker) execute() (wstatus, error) {
	// First re-deliver surviving results the recovery plan routed from
	// this processor's local store.
	for _, sp := range w.resends {
		k := w.plan.key(sp)
		env, ok := w.local[k.from]
		if !ok {
			return wsError, fmt.Errorf("recovery resend: no local result for task %s", k.from)
		}
		val, ok := env[k.v]
		if !ok {
			return wsError, fmt.Errorf("recovery resend: task %s result lacks %q", k.from, k.v)
		}
		if err := w.send(sp, val, w.clock); err != nil {
			return wsError, err
		}
	}
	// The re-send burst precedes the slot loop: peers waiting on
	// surviving results must not wait out our first (possibly long) slot.
	w.endBurst()
	w.resends = nil

	for w.cursor < len(w.prog.slots) {
		if w.ctrl.faults.crashNow(w.pe, w.executed) {
			w.events = append(w.events, trace.Event{Kind: trace.FaultInjected, At: w.ctrl.stamp(w.clock),
				Task: w.prog.slots[w.cursor].Task, PE: w.pe, Peer: w.pe, Note: "crash"})
			return wsCrashed, nil
		}
		select {
		case <-w.er.pause:
			return wsPaused, nil
		default:
		}
		if err := w.runSlot(&w.prog.slots[w.cursor]); err != nil {
			if errors.Is(err, errPaused) {
				return wsPaused, nil
			}
			return wsError, err
		}
		w.cursor++
		w.executed++
	}
	return wsFinished, nil
}

// runSlot executes one scheduled task copy: gather inputs (local,
// message or external), interpret the routine, deliver scheduled
// messages, and export external outputs from the primary copy.
func (w *worker) runSlot(sl *slotProg) error {
	virtual := w.runner.VirtualTime
	// The task's environment is built once, every value unaliased on the
	// way in: a routine may write into its vectors, and they are the
	// producer's (or the caller's) own.
	env := make(pits.Env, len(sl.extIn)+len(sl.preds))
	// External inputs bound by name from the runner's global data
	// (validated up front by Run; kept as defense in depth).
	for _, v := range sl.extIn {
		val, ok := w.runner.Inputs[v]
		if !ok {
			return fmt.Errorf("task %s: missing external input %q", sl.Task, v)
		}
		env[v] = pits.Unalias(val)
	}
	// Arc inputs: from the local store when the producer ran here, else
	// from a received message. dataReady tracks the latest virtual
	// message arrival.
	var dataReady machine.Time
	for i, a := range sl.preds {
		if ord := sl.ins[i]; ord >= 0 {
			m, err := w.receive(ord)
			if err != nil {
				if errors.Is(err, errPaused) {
					return err
				}
				return fmt.Errorf("task %s: %w", sl.Task, err)
			}
			env[a.Var] = pits.Unalias(m.val)
			if m.at > dataReady {
				dataReady = m.at
			}
			continue
		}
		prodEnv, ok := w.local[a.From]
		if !ok {
			return fmt.Errorf("task %s: input %q from %s neither local nor scheduled as a message",
				sl.Task, a.Var, a.From)
		}
		val, ok := prodEnv[a.Var]
		if !ok {
			return fmt.Errorf("task %s: producer %s did not define %q", sl.Task, a.From, a.Var)
		}
		env[a.Var] = pits.Unalias(val)
	}

	start := w.ctrl.stamp(max(w.clock, dataReady))
	w.events = append(w.events, trace.Event{Kind: trace.TaskStart, At: start, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	w.interp.Seed = sl.seed
	if err := w.interp.Run(sl.prog, env); err != nil {
		return fmt.Errorf("task %s: %w", sl.Task, err)
	}
	finish := w.ctrl.stamp(start + w.sched.Machine.ExecTime(w.interp.Ops(), w.pe))
	if virtual {
		w.clock = finish
	}
	w.events = append(w.events, trace.Event{Kind: trace.TaskEnd, At: finish, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	for _, line := range w.interp.Output() {
		w.printed = append(w.printed, string(sl.Task)+": "+line)
	}
	w.local[sl.Task] = env

	// Deliver scheduled messages from this copy.
	for _, sp := range sl.sends {
		k := w.plan.key(sp)
		val, ok := env[k.v]
		if !ok {
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
	for i, v := range sl.outs {
		val, ok := env[v]
		if !ok {
			return fmt.Errorf("task %s: routine did not produce external output %q", sl.Task, v)
		}
		w.outputs[sl.qual[i]] = val
		w.exports[v] = sl.Task
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
	a.xmsg, a.state = m, stashed
	return nil
}

// receive blocks until inbound message ord arrives, admitting (and so
// stashing) whatever shows up first. The take that finds the inbox empty
// leaves the session's busy count, so a message that never comes leaves
// the session quiet, and its report names this receive.
func (w *worker) receive(ord int32) (xmsg, error) {
	due, a := &w.prog.in[ord], &w.arrived[ord]
	if a.state != stashed {
		w.awaiting.Store(due) // a pointer into the plan: blocking allocates nothing
		defer w.awaiting.Store(nil)
	}
	for a.state != stashed {
		m, ok, last := w.inbox.take()
		if !ok {
			if last {
				w.ctrl.quiesce()
			}
			select {
			case <-w.inbox.ready:
			case <-w.er.pause:
				w.inbox.rouse()
				return xmsg{}, errPaused
			case <-w.ctrl.done:
				return xmsg{}, fmt.Errorf("%w while waiting for %s:%s from %s", errAborted, due.key.to, due.key.v, due.key.from)
			}
			continue
		}
		if err := w.admit(m); err != nil {
			return xmsg{}, err
		}
	}
	a.state = consumed
	w.events = append(w.events, trace.Event{Kind: trace.MsgRecv, At: w.ctrl.stamp(a.at), Task: due.key.from, PE: w.pe, Var: due.key.v, Peer: a.fromPE, Seq: a.seq})
	return a.xmsg, nil
}
