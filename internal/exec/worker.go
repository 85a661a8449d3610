package exec

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// worker owns one simulated processor during a run. Its slot list,
// expected messages and send plans are installed by Run for era 0 and
// rewritten by the coordinator at each recovery barrier.
type worker struct {
	pe     int
	runner *Runner
	sched  *sched.Schedule
	flat   *graph.Flat
	progs  map[graph.NodeID]*pits.Program
	interp pits.Interp // reused by every slot; reseeded per task
	ctrl   *controller
	now    func() machine.Time
	inbox  *mailbox
	// awaiting is what a blocked receive is waiting for (nil
	// otherwise): the raw material of deadlock and stall reports.
	awaiting atomic.Pointer[awaited]

	// Per-era assignment.
	slots    []sched.Slot
	cursor   int
	expected map[msgKey]int // scheduled arrivals: key -> sending processor
	sends    map[graph.NodeID][]sendPlan
	resends  []sendPlan // surviving results to re-deliver at era start
	epoch    int64
	er       *era

	events  []trace.Event
	outputs pits.Env                // qualified "task.var" external outputs
	exports map[string]graph.NodeID // unqualified external output -> exporting task
	printed []string
	err     error
	dead    bool // crashed by fault injection; results discarded

	clock    machine.Time              // virtual-time clock (VirtualTime mode)
	local    map[graph.NodeID]pits.Env // outputs of tasks executed here
	recvd    map[msgKey]xmsg           // admitted but not yet consumed
	seen     map[msgKey]uint64         // consumed keys -> sequence (duplicate rejection)
	executed int                       // tasks executed here, across eras (crash counter)
	seqLocal uint64                    // low bits of this sender's message sequence numbers
}

// awaited is a scheduled message and the processor due to send it.
type awaited struct {
	key    msgKey
	fromPE int
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
// local/recvd/seen maps are built at session construction (not here) so
// a session started mid-run can install imported state before the
// goroutine launches.
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
			w.ctrl.post(wevent{evCrash, w.pe})
			return nil
		case wsPaused:
			if !w.park() {
				return nil
			}
		case wsFinished:
			w.ctrl.retire()
			w.ctrl.post(wevent{evIdle, w.pe})
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
// next era (true) or the run aborts (false). Undelivered stash and
// duplicate-tracking state belong to the dead era and are discarded.
func (w *worker) park() bool {
	w.recvd = map[msgKey]xmsg{}
	w.seen = map[msgKey]uint64{}
	w.ctrl.post(wevent{evParked, w.pe})
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
		env, ok := w.local[sp.key.from]
		if !ok {
			return wsError, fmt.Errorf("recovery resend: no local result for task %s", sp.key.from)
		}
		val, ok := env[sp.key.v]
		if !ok {
			return wsError, fmt.Errorf("recovery resend: task %s result lacks %q", sp.key.from, sp.key.v)
		}
		sendAt := w.now()
		arriveAt := machine.Time(0)
		if w.runner.VirtualTime {
			sendAt = w.clock
			arriveAt = w.clock + w.sched.Machine.CommTime(sp.words, w.pe, sp.toPE)
		}
		if err := w.send(sp, val, sendAt, arriveAt); err != nil {
			return wsError, err
		}
	}
	if len(w.resends) > 0 {
		// The re-send burst precedes the slot loop; flush it so peers
		// waiting on surviving results aren't stalled behind our first
		// (possibly long) slot.
		w.ctrl.flushRemote()
	}
	w.resends = nil

	for w.cursor < len(w.slots) {
		if w.ctrl.faults.crashNow(w.pe, w.executed) {
			at := w.now()
			if w.runner.VirtualTime {
				at = w.clock
			}
			w.events = append(w.events, trace.Event{Kind: trace.FaultInjected, At: at,
				Task: w.slots[w.cursor].Task, PE: w.pe, Peer: w.pe, Note: "crash"})
			w.ctrl.stats.FaultsInjected.Add(1)
			return wsCrashed, nil
		}
		select {
		case <-w.er.pause:
			return wsPaused, nil
		default:
		}
		if err := w.runSlot(w.slots[w.cursor]); err != nil {
			if errors.Is(err, errPaused) {
				return wsPaused, nil
			}
			return wsError, err
		}
		w.cursor++
		w.executed++
		w.ctrl.progress.Add(1)
		w.ctrl.stats.TasksRun.Add(1)
	}
	return wsFinished, nil
}

// runSlot executes one scheduled task copy: gather inputs (local,
// message or external), interpret the routine, deliver scheduled
// messages, and export external outputs from the primary copy.
func (w *worker) runSlot(sl sched.Slot) error {
	virtual := w.runner.VirtualTime
	preds := w.sched.Graph.PredArcs(sl.Task)
	// The task's environment is built once, every value unaliased on the
	// way in: a routine may write into its vectors, and they are the
	// producer's (or the caller's) own.
	env := make(pits.Env, len(w.flat.ExternalIn[sl.Task])+len(preds))
	// External inputs bound by name from the runner's global data
	// (validated up front by Run; kept as defense in depth).
	for _, v := range w.flat.ExternalIn[sl.Task] {
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
	for _, a := range preds {
		k := msgKey{a.From, sl.Task, a.Var}
		if fromPE, isMsg := w.expected[k]; isMsg {
			m, err := w.receive(k, fromPE)
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

	start := w.now()
	if virtual {
		start = w.clock
		if dataReady > start {
			start = dataReady
		}
	}
	w.events = append(w.events, trace.Event{Kind: trace.TaskStart, At: start, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	w.interp.Seed = taskSeed(sl.Task)
	if err := w.interp.Run(w.progs[sl.Task], env); err != nil {
		return fmt.Errorf("task %s: %w", sl.Task, err)
	}
	finish := w.now()
	if virtual {
		finish = start + w.sched.Machine.ExecTime(w.interp.Ops(), w.pe)
		w.clock = finish
	}
	w.events = append(w.events, trace.Event{Kind: trace.TaskEnd, At: finish, Task: sl.Task, PE: w.pe, Dup: sl.Dup})
	for _, line := range w.interp.Output() {
		w.printed = append(w.printed, string(sl.Task)+": "+line)
	}
	w.local[sl.Task] = env

	// Deliver scheduled messages from this copy.
	for _, sp := range w.sends[sl.Task] {
		val, ok := env[sp.key.v]
		if !ok {
			return fmt.Errorf("task %s: routine did not produce %q needed by %s", sl.Task, sp.key.v, sp.key.to)
		}
		sendAt := w.now()
		arriveAt := machine.Time(0)
		if virtual {
			sendAt = finish
			arriveAt = finish + w.sched.Machine.CommTime(sp.words, w.pe, sp.toPE)
		}
		if err := w.send(sp, val, sendAt, arriveAt); err != nil {
			return fmt.Errorf("task %s: %w", sl.Task, err)
		}
	}
	if len(w.sends[sl.Task]) > 0 {
		// Slot boundary: the send burst above may be coalescing in a
		// remote plane's peer buffers; put it on the wire now.
		w.ctrl.flushRemote()
	}

	// External outputs from the primary copy only (duplicates are
	// communication surrogates, not result owners). Only the qualified
	// "task.var" key is written here; Run merges the unqualified names
	// and rejects collisions between tasks.
	if !sl.Dup {
		for _, v := range w.flat.ExternalOut[sl.Task] {
			val, ok := env[v]
			if !ok {
				return fmt.Errorf("task %s: routine did not produce external output %q", sl.Task, v)
			}
			w.outputs[string(sl.Task)+"."+v] = val
			w.exports[v] = sl.Task
		}
	}
	return nil
}

// send transports one scheduled delivery, applying any injected faults
// and choosing the reliable or direct path.
func (w *worker) send(sp sendPlan, val pits.Value, sendAt, arriveAt machine.Time) error {
	// Sequence numbers are per-sender (PE in the high bits) so that
	// assignment does not depend on cross-goroutine interleaving:
	// virtual-time runs replay with identical traces.
	w.seqLocal++
	m := xmsg{key: sp.key, val: val, fromPE: w.pe, at: arriveAt,
		seq: uint64(w.pe+1)<<32 | w.seqLocal, epoch: w.epoch}
	if w.ctrl.checksums {
		m.sum = checksum(val)
	}
	w.events = append(w.events, trace.Event{Kind: trace.MsgSend, At: sendAt,
		Task: sp.key.from, PE: w.pe, Var: sp.key.v, Peer: sp.toPE, Seq: m.seq})
	w.ctrl.stats.MsgsSent.Add(1)
	copies := 1
	var wallDelay time.Duration
	for _, k := range w.ctrl.faults.onSend(sp.key) {
		w.events = append(w.events, trace.Event{Kind: trace.FaultInjected, At: sendAt,
			Task: sp.key.from, PE: w.pe, Var: sp.key.v, Peer: sp.toPE, Note: k.String()})
		w.ctrl.stats.FaultsInjected.Add(1)
		switch k {
		case FaultDrop:
			copies = 0
		case FaultDup:
			copies = 2
		case FaultDelay:
			d := w.ctrl.faults.delayOf(sp.key)
			m.at += d
			wallDelay = time.Duration(d) * time.Microsecond
		case FaultCorrupt:
			m.val = corruptValue(val)
		}
	}
	if !w.ctrl.isLocal(sp.toPE) {
		// The consumer lives in another process: hand the message to
		// the remote plane, which owns process-boundary reliability.
		return w.ctrl.sendRemote(m, val, sp.toPE, copies, wallDelay)
	}
	if w.ctrl.retry {
		m.ack = make(chan struct{}, 4)
		w.ctrl.sendReliable(m, val, sp.toPE, copies, wallDelay)
		return nil
	}
	if copies == 0 {
		// Dropped with no retransmission to resurrect it: the receiver
		// starves, and the session reports who waits for what.
		return nil
	}
	for i := 0; i < copies; i++ {
		if wallDelay > 0 {
			// Held back without blocking this worker.
			w.ctrl.later(wallDelay, func() { w.ctrl.deliver(m, sp.toPE) })
		} else if !w.ctrl.deliver(m, sp.toPE) {
			return fmt.Errorf("%w while sending to PE %d", errAborted, sp.toPE)
		}
	}
	return nil
}

// admit vets one delivery: stale-era and benign duplicate copies are
// acknowledged and discarded, corrupted payloads are dropped so the
// sender retransmits (an error without retry), and a second delivery of
// a consumed key with a different sequence number is rejected as a
// schedule bug.
func (w *worker) admit(m xmsg) (bool, error) {
	if m.epoch != w.epoch {
		ackMsg(m)
		return false, nil
	}
	if w.ctrl.checksums && m.sum != 0 && m.sum != checksum(m.val) {
		if w.ctrl.retry {
			return false, nil // no ack: the sender retransmits the original
		}
		return false, fmt.Errorf("message %s from PE %d corrupted in transit", m.key, m.fromPE)
	}
	if prev, consumed := w.seen[m.key]; consumed {
		if prev == m.seq {
			ackMsg(m) // retransmission or injected duplicate of the same send
			return false, nil
		}
		return false, fmt.Errorf("duplicate delivery of %s (sequence %d after %d): schedule sends it twice",
			m.key, m.seq, prev)
	}
	w.seen[m.key] = m.seq
	ackMsg(m)
	w.ctrl.progress.Add(1)
	return true, nil
}

// receive blocks until the identified message, due from fromPE,
// arrives, stashing any other messages that show up first. The take
// that finds the inbox empty leaves the session's busy count, so a
// message that never comes ends as the session's deadlock (or, across
// processes, stall) report naming this receive.
func (w *worker) receive(k msgKey, fromPE int) (xmsg, error) {
	emit := func(m xmsg) xmsg {
		at := w.now()
		if w.runner.VirtualTime {
			at = m.at
		}
		w.events = append(w.events, trace.Event{Kind: trace.MsgRecv, At: at, Task: k.from, PE: w.pe, Var: k.v, Peer: m.fromPE, Seq: m.seq})
		w.ctrl.stats.MsgsRecv.Add(1)
		return m
	}
	if m, ok := w.recvd[k]; ok {
		delete(w.recvd, k)
		return emit(m), nil
	}
	w.awaiting.Store(&awaited{k, fromPE}) // only a blocking receive pays the allocation
	defer w.awaiting.Store(nil)
	for {
		m, ok, last := w.inbox.take()
		if !ok {
			if last {
				w.ctrl.starved()
			}
			select {
			case <-w.inbox.ready:
			case <-w.er.pause:
				w.inbox.rouse()
				return xmsg{}, errPaused
			case <-w.ctrl.done:
				return xmsg{}, fmt.Errorf("%w while waiting for %s:%s from %s", errAborted, k.to, k.v, k.from)
			}
			continue
		}
		fresh, err := w.admit(m)
		if err != nil {
			return xmsg{}, err
		}
		if !fresh {
			continue
		}
		if m.key == k {
			return emit(m), nil
		}
		w.recvd[m.key] = m
	}
}
