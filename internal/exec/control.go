package exec

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/trace"
)

// This file is one session's coordinator: the goroutine that watches
// its workers' life-cycle events and busy count, reports them to the
// remote plane, and carries out the Pause/Resume commands that come
// back. It decides nothing: a deadlock is the run Lifecycle's to call,
// from every member's reports (see Report).

// wevent is a worker life-cycle notification to the coordinator: the
// worker of processor pe hit an injected crash and died, or (parked)
// reached the recovery barrier.
type wevent struct {
	pe     int
	parked bool
}

// era is one epoch of execution between recoveries. paused is set to
// order every live worker to the barrier; the era that replaces it
// releases them. Messages stamp their era's epoch so deliveries from
// before a recovery are recognisably stale.
type era struct {
	epoch  int64
	paused atomic.Bool
}

// sessCmd is one request from the session API to the coordinator loop:
// a Resume when it carries a plan, else a Pause. The reply is the
// paused state (nil for a Resume, or when the session aborted instead).
type sessCmd struct {
	plan *ResumePlan
	// checkpoint asks a pause to hand over the full worker-local state
	// (a graceful drain's departure gift); see Session.Pause.
	checkpoint bool
	era        *eraPlan // a Resume's plan, compiled by the caller
	reply      chan *PauseState
}

// controller owns the shared state of one execution session.
type controller struct {
	runner *Runner
	numPE  int

	// hosted flags the processors this session runs (a flag drops when
	// a joiner revives a processor that crashed here); plane carries
	// traffic for the rest and hears the life-cycle reports. cmds feeds
	// Pause/Resume requests to the coordinator loop.
	hosted []atomic.Bool
	plane  RemotePlane
	cmds   chan sessCmd
	// busy counts what can still hand a hosted processor a message
	// without outside help: live hosted workers that are neither waiting
	// for a message nor through their slot list, plus the deliveries
	// background goroutines still owe. Zero is quiet: whoever takes it
	// there wakes the coordinator through quiet, which reports the
	// session (see tell). crashed is up from a hosted processor's death
	// until the resume that replans it.
	busy    atomic.Int64
	crashed atomic.Bool
	quiet   chan struct{}
	// probes counts the lifecycle's probes the coordinator has still to
	// answer (see Session.Probe).
	probes atomic.Int32

	done   chan struct{} // closed to abort the run (some worker failed)
	finish chan struct{} // closed on clean completion (all workers idle)
	// ended says the same to deliver, which asks once per message: 0
	// while the run is on, then endFinished or endAborted (an abort wins).
	ended atomic.Int32

	doneOnce   sync.Once
	finishOnce sync.Once

	events chan wevent

	era atomic.Pointer[era]

	mu     sync.Mutex
	extra  []trace.Event // events emitted outside worker goroutines
	runErr error         // a root cause from outside the workers: the driver's abort, a held copy's failed delivery
	// Under mu as well: every remote copy the session handed its plane,
	// the bursts of delayed ones that ended in a flush (the workers count
	// their own), and the counts a Report carries: the remote copies of
	// era epoch handed to the plane (sent) and taken in (recv[0]), and
	// those of the era after it taken in (recv[1]), which peers already
	// resumed into can send while this session is still parked.
	sends, lateFlushes int64
	epoch, sent        int64
	recv               [2]int64

	bg sync.WaitGroup // owed-delivery goroutines (see later)

	workers   []*worker
	faults    *faultState
	retry     bool
	checksums bool
	now       func() machine.Time
}

const (
	endFinished = 1 + iota
	endAborted
)

func (c *controller) abort() {
	c.doneOnce.Do(func() { c.ended.Store(endAborted); close(c.done); c.rouse() })
}

func (c *controller) complete() {
	c.finishOnce.Do(func() { c.ended.CompareAndSwap(0, endFinished); close(c.finish); c.rouse() })
}

// rouse wakes every hosted worker to read the run's state again, after
// the barrier formed, the next era began or the run ended.
func (c *controller) rouse() {
	for _, w := range c.workers {
		if w != nil {
			w.inbox.rouse()
		}
	}
}

// isLocal reports whether processor pe is hosted by this session.
func (c *controller) isLocal(pe int) bool {
	return pe >= 0 && pe < len(c.hosted) && c.hosted[pe].Load()
}

// numLocal counts the processors hosted by this session.
func (c *controller) numLocal() int {
	n := 0
	for i := range c.hosted {
		if c.hosted[i].Load() {
			n++
		}
	}
	return n
}

// fail records a coordinator-level root cause and aborts the run.
func (c *controller) fail(err error) {
	c.mu.Lock()
	if c.runErr == nil {
		c.runErr = err
	}
	c.mu.Unlock()
	c.abort()
}

// stamp is the time a trace event carries: the wall clock, or, in
// virtual time, the model time the caller worked out.
func (c *controller) stamp(virtual machine.Time) machine.Time {
	if c.runner.VirtualTime {
		return virtual
	}
	return c.now()
}

// addEvent appends a trace event from outside a worker goroutine.
func (c *controller) addEvent(e trace.Event) {
	c.mu.Lock()
	c.extra = append(c.extra, e)
	c.mu.Unlock()
}

// report says what the session is now (see Report); a probe's answer
// also names each blocked hosted processor, with the edge it awaits and
// the processor scheduled to send it. Under mu a copy from another
// process is either counted and in its mailbox, its blocked receiver
// roused, or neither; a copy handed to the plane is counted before its
// sender leaves the busy count.
func (c *controller) report(answer bool) Quiet {
	c.mu.Lock()
	defer c.mu.Unlock()
	q := Quiet{Report: Report{Epoch: c.epoch, Sent: c.sent, Recv: c.recv[0],
		Busy: c.busy.Load() != 0 || c.crashed.Load() || c.moot(c.era.Load())}, Answer: answer}
	for pe, w := range c.workers {
		if w == nil {
			continue
		}
		if a := w.awaiting.Load(); a != nil {
			q.Waiting = true
			if answer {
				q.Waits = append(q.Waits, Wait{pe, fmt.Sprintf("PE %d waits for %s from PE %d", pe, a.key, a.fromPE)})
			}
		}
	}
	return q
}

// tell answers the probes asked since it last ran, and then reports the
// session when it is quiet and not as it last said, answers included:
// once per quiet spell. Quiet means no hosted crash awaits its replan
// and the barrier is not forming, too — the session then reports again
// in the next era. Only the coordinator tells, so the plane hears every
// report and answer in the order they were read; a newer report can
// never be overtaken by an older answer.
func (c *controller) tell(last *Report) {
	for n := c.probes.Swap(0); n >= 0; n-- { // n answers, then the report
		if q := c.report(n > 0); n > 0 || !q.Busy && q.Report != *last {
			*last = q.Report
			c.plane.Quiet(q)
		}
	}
}

// quiesce wakes the coordinator to tell the plane: the busy count
// reached zero, a copy from another process arrived while it was, or
// the lifecycle probes.
func (c *controller) quiesce() {
	select {
	case c.quiet <- struct{}{}:
	default:
	}
}

// retire takes one unit out of the busy count: a worker finished its
// slot list or died, or a background goroutine made (or gave up) the
// delivery it owed.
func (c *controller) retire() {
	if c.busy.Add(-1) == 0 {
		c.quiesce()
	}
}

// later runs f, which owes the session a delivery a wall-clock delay
// fault held back, in the background after d — or not at all if the run
// ends first. The debt is in the busy count from before the sender moves
// on until f returns, so a session waiting on it is never quiet.
func (c *controller) later(d time.Duration, f func()) {
	c.bg.Add(1)
	c.busy.Add(1)
	go func() {
		defer c.bg.Done()
		defer c.retire()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			f()
		case <-c.done:
		case <-c.finish:
		}
	}()
}

// post sends a life-cycle event to the coordinator, giving up if the
// run aborts.
func (c *controller) post(ev wevent) {
	select {
	case c.events <- ev:
	case <-c.done:
	}
}

// applyAdoptions re-exports orphaned external outputs from their
// surviving holders. Adoptions naming remote holders are skipped: their
// hosting process applies them.
func (c *controller) applyAdoptions(ads []Adoption) {
	for _, a := range ads {
		if a.PE < 0 || a.PE >= c.numPE {
			continue
		}
		hw := c.workers[a.PE]
		if hw == nil || hw.dead {
			continue
		}
		_, names, _ := layout(hw.sched.Graph, hw.plan.flat, a.Task)
		if val := varAt(hw.local[a.Task], varOf(names, a.Var)); val != nil {
			hw.outputs[string(a.Task)+"."+a.Var] = val
			hw.exports[a.Var] = a.Task
		}
	}
}

// coordinate is the session's coordinator loop. It decides nothing:
// quiet spells and crashes of the hosted processors are reported to the
// plane (the run's Lifecycle, behind it, decides what to do), and
// Pause/Resume arrive as commands from there.
func (c *controller) coordinate() {
	live := c.numLocal()
	last := Report{Busy: true} // nothing told yet
	// A session hosting no processor is quiet from the start.
	c.tell(&last)
	for {
		select {
		case <-c.done:
			return
		case <-c.finish:
			return
		case <-c.quiet:
			c.tell(&last)
		case ev := <-c.events:
			if !ev.parked {
				live--
				c.plane.LocalCrash(ev.pe)
			}
		case cmd := <-c.cmds:
			if cmd.plan == nil {
				st, ok := c.pauseLocal(&live, cmd.checkpoint)
				cmd.reply <- st
				if !ok {
					return
				}
				continue
			}
			c.resumeLocal(cmd.plan, cmd.era)
			cmd.reply <- nil
			// With every hosted processor crashed nothing takes the busy
			// count to zero again: the new era is quiet from its start.
			c.tell(&last)
		}
	}
}

// pauseLocal drives every live hosted worker to the recovery barrier
// and snapshots the state the lifecycle needs to replan.
// With checkpoint set it additionally packs the full worker-local env
// checkpoint, print lines and trace events — everything a drained
// process must hand over before departing. Returns false if the
// session aborted instead.
func (c *controller) pauseLocal(live *int, checkpoint bool) (*PauseState, bool) {
	c.era.Load().paused.Store(true)
	c.rouse()
	parked := 0
	for parked < *live {
		select {
		case <-c.done:
			return nil, false
		case ev := <-c.events:
			if ev.parked {
				parked++
				continue
			}
			// A processor died racing the pause; report it so the
			// global replan sees it too.
			*live--
			c.plane.LocalCrash(ev.pe)
		}
	}
	// Every live hosted worker is parked: state is safe to read (its
	// parked event orders its writes before ours). Each surviving
	// task result is attributed to its lowest live local holder; the
	// planner breaks cross-session ties the same way, by
	// ascending processor.
	st := &PauseState{Done: map[graph.NodeID]int{}}
	held := map[string]bool{}
	for pe := 0; pe < c.numPE; pe++ {
		w := c.workers[pe]
		if w == nil {
			continue
		}
		if w.dead {
			st.Dead = append(st.Dead, pe)
			continue
		}
		for t := range w.local {
			if _, ok := st.Done[t]; !ok {
				st.Done[t] = pe
			}
		}
		for q := range w.outputs {
			held[q] = true
		}
		if w.clock > st.Clock {
			st.Clock = w.clock
		}
	}
	st.Held = make([]string, 0, len(held))
	for q := range held {
		st.Held = append(st.Held, q)
	}
	sort.Strings(st.Held)
	if checkpoint {
		st.Local = map[graph.NodeID]pits.Env{}
		for t, pe := range st.Done {
			w := c.workers[pe]
			_, names, _ := layout(w.sched.Graph, w.plan.flat, t)
			st.Local[t] = pits.Env{}
			st.Local[t].Update(names, w.local[t])
		}
		// A copy: a drain that cannot complete resumes this session.
		st.Events = c.eventLog(nil)
		for pe := 0; pe < c.numPE; pe++ {
			// A crashed worker's printed lines died with it.
			w := c.workers[pe]
			if w == nil || w.dead {
				continue
			}
			st.Printed = append(st.Printed, w.printed...)
			for range w.printed {
				st.PrintedPE = append(st.PrintedPE, pe)
			}
		}
	}
	return st, true
}

// eventLog returns the events this session logged: its workers' logs end
// to end — a crashed worker's too, which shows what happened up to the
// crash — and then those logged outside them. The workers' logs start
// out as consecutive stretches of one array; given it, they are closed
// up there if every log is still in its stretch. A worker that outgrew
// its stretch (faults, retries and recovery eras log beyond a fault-free
// pass) moved its log away, and so raised the stretches' total capacity
// above the array's length: then, as without an array, the logs are
// copied into a new one of the right size.
func (c *controller) eventLog(log []trace.Event) []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, room := len(c.extra), 0
	for _, w := range c.workers {
		if w != nil {
			n, room = n+len(w.events), room+cap(w.events)
		}
	}
	if log = log[:0]; room != cap(log) {
		log = make([]trace.Event, 0, n)
	}
	for _, w := range c.workers {
		if w != nil {
			log = append(log, w.events...)
		}
	}
	return append(log, c.extra...)
}

// installPlan rewrites the hosted workers' era state from a global
// plan. Imports (a drained worker's env checkpoint re-homed here) land
// in the new holders' local stores first, so the plan's re-sends and
// adoptions can read them exactly as if the tasks had run here. A
// processor that crashed here and is live in the plan was revived by a
// joiner: from now on it is remote, and senders must reach it through
// the plane, not through the dead worker's mailbox.
func (c *controller) installPlan(p *ResumePlan, ep *eraPlan) {
	for pe, w := range c.workers {
		if w != nil && w.dead && !p.Dead[pe] {
			c.hosted[pe].Store(false)
		}
	}
	for _, imp := range p.Imports {
		if imp.PE < 0 || imp.PE >= c.numPE || !c.isLocal(imp.PE) {
			continue
		}
		hw := c.workers[imp.PE]
		if hw == nil || hw.dead {
			continue
		}
		// Imported results are laid out as if the tasks had run here.
		_, names, _ := layout(hw.sched.Graph, ep.flat, imp.Task)
		vals := make([]pits.Value, len(names))
		imp.Env.Bind(names, vals)
		hw.local[imp.Task] = vals
	}
	for pe, w := range c.workers {
		if w != nil && !w.dead && !p.Dead[pe] {
			w.assign(ep, p.Epoch)
		}
	}
	c.applyAdoptions(p.Adopt)
}

// resumeLocal installs this process's share of the global recovery plan
// and releases the parked workers into the new era.
func (c *controller) resumeLocal(p *ResumePlan, ep *eraPlan) {
	c.installPlan(p, ep)
	c.crashed.Store(false)
	c.mu.Lock()
	ahead := int64(0)
	if p.Epoch == c.epoch+1 {
		ahead = c.recv[1]
	}
	c.epoch, c.sent, c.recv = p.Epoch, 0, [2]int64{ahead}
	c.mu.Unlock()
	c.era.Store(&era{epoch: p.Epoch})
	c.rouse()
}

// moot reports whether a delivery owed since era er no longer matters:
// er's recovery barrier has formed, or the run has ended.
func (c *controller) moot(er *era) bool { return er.paused.Load() || c.ended.Load() != 0 }
