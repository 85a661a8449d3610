package exec

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/trace"
)

// This file is one session's coordinator: the goroutine that watches
// its workers' life-cycle events, reports them to the remote plane,
// carries out the Pause/Resume commands that come back, and detects
// deadlock (by counting) and stalls (by timing).

// wevent is a worker life-cycle notification to the coordinator.
type wevent struct {
	kind wekind
	pe   int
}

type wekind int

const (
	evIdle   wekind = iota // worker finished its current slot list
	evCrash                // worker hit an injected crash and died
	evParked               // worker reached the recovery barrier
)

// era is one epoch of execution between recoveries. pause is closed to
// order every live worker to the barrier; resume is closed once the new
// plan is installed. Messages stamp their era's epoch so deliveries
// from before a recovery are recognisably stale.
type era struct {
	epoch  int64
	pause  chan struct{}
	resume chan struct{}
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
	// without outside help: live hosted workers that are neither blocked
	// in receive nor through their slot list, plus the deliveries
	// background goroutines still owe. Zero with a worker blocked is
	// starvation (see starved). crashed is up from a hosted processor's
	// death until the resume that replans it.
	busy    atomic.Int64
	crashed atomic.Bool
	// quiescent is set while every live hosted worker is idle or parked:
	// local progress legitimately stops while other sessions still work
	// (or the barrier forms), so the stall detector must hold fire.
	quiescent atomic.Bool

	done   chan struct{} // closed to abort the run (some worker failed)
	finish chan struct{} // closed on clean completion (all workers idle)
	// ended says the same to deliver, which asks once per message: 0
	// while the run is on, then endFinished or endAborted (an abort wins).
	ended atomic.Int32

	doneOnce   sync.Once
	finishOnce sync.Once

	events chan wevent

	era      atomic.Pointer[era]
	progress atomic.Uint64 // bumped per task completion and accepted message

	mu     sync.Mutex
	extra  []trace.Event // events emitted outside worker goroutines
	runErr error         // coordinator-detected failure (stall, unrecoverable crash)
	late   planeCounts   // the remote plane's share of delayed copies

	bg sync.WaitGroup // owed-delivery goroutines (see later) and stallWatch

	workers   []*worker
	faults    *faultState
	retry     bool
	checksums bool
	now       func() machine.Time
}

// planeCounts counts what a session handed its remote plane: copies,
// and the bursts that ended in a flush. Each worker keeps its own, and
// the delayed copies theirs under the controller's lock; Wait sums them
// into the partial.
type planeCounts struct{ sends, flushes int64 }

const (
	endFinished = 1 + iota
	endAborted
)

func (c *controller) abort() {
	c.doneOnce.Do(func() { c.ended.Store(endAborted); close(c.done) })
}

func (c *controller) complete() {
	c.finishOnce.Do(func() { c.ended.CompareAndSwap(0, endFinished); close(c.finish) })
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

// waiting renders the blocked hosted processors in processor order,
// each with the edge it awaits and the processor scheduled to send it:
// the body of a deadlock or stall report.
func (c *controller) waiting() string {
	var parts []string
	for pe, w := range c.workers {
		if w == nil {
			continue
		}
		if a := w.awaiting.Load(); a != nil {
			parts = append(parts, fmt.Sprintf("PE %d waits for %s from PE %d", pe, a.key, a.fromPE))
		}
	}
	return strings.Join(parts, "; ")
}

// retire takes one unit out of the busy count: a worker finished its
// slot list or died, or a background goroutine made (or gave up) the
// delivery it owed.
func (c *controller) retire() {
	if c.busy.Add(-1) == 0 {
		c.starved()
	}
}

// later runs f, which owes the session a delivery a wall-clock delay
// fault held back, in the background after d — or not at all if the run
// ends first. The debt is in the busy count from before the sender moves
// on until f returns, so a session waiting on it is never taken for
// starved.
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

// starved is called by whoever took the last unit out of the busy
// count: every live hosted worker is now blocked in receive or through
// its list, and nothing in this session will ever send again. A session
// hosting a share of the machine may be waiting on its peers and leaves
// the verdict to stallWatch. One hosting all of it has proved a deadlock
// the moment some worker is blocked — unless a recovery is about to
// rewrite the plan: a hosted crash not yet replanned, or the barrier
// already forming.
func (c *controller) starved() {
	if c.numLocal() < c.numPE || c.crashed.Load() {
		return
	}
	select {
	case <-c.era.Load().pause:
		return
	default:
	}
	if waits := c.waiting(); waits != "" {
		c.fail(fmt.Errorf("exec: run deadlocked: %s", waits))
	}
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
		if val, ok := hw.local[a.Task][a.Var]; ok {
			hw.outputs[string(a.Task)+"."+a.Var] = val
			hw.exports[a.Var] = a.Task
		}
	}
}

// coordinate is the session's coordinator loop. It decides nothing:
// idleness and crashes of the hosted processors are reported to the
// plane (the run's Lifecycle, behind it, decides what to do), and
// Pause/Resume arrive as commands from there.
func (c *controller) coordinate() {
	live := c.numLocal()
	idle := 0
	if live == 0 {
		// A session hosting no processors is trivially quiescent; it
		// exists only to be told the run finished.
		c.quiescent.Store(true)
	}
	for {
		select {
		case <-c.done:
			return
		case <-c.finish:
			return
		case ev := <-c.events:
			switch ev.kind {
			case evIdle:
				idle++
				if idle >= live {
					c.quiescent.Store(true)
					c.plane.LocalIdle()
				}
			case evCrash:
				live--
				if live <= 0 {
					c.quiescent.Store(true)
				}
				c.plane.LocalCrash(ev.pe)
			}
		case cmd := <-c.cmds:
			idle = 0
			if cmd.plan == nil {
				st, ok := c.pauseLocal(&live, cmd.checkpoint)
				cmd.reply <- st
				if !ok {
					return
				}
				continue
			}
			c.resumeLocal(cmd.plan, cmd.era)
			if live > 0 {
				c.quiescent.Store(false)
			} else {
				// Every hosted processor has crashed: no worker will
				// ever emit evIdle again, so report idleness now or
				// the lifecycle waits for this session forever.
				c.plane.LocalIdle()
			}
			cmd.reply <- nil
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
	c.quiescent.Store(true)
	er := c.era.Load()
	close(er.pause)
	parked := 0
	for parked < *live {
		select {
		case <-c.done:
			return nil, false
		case ev := <-c.events:
			switch ev.kind {
			case evParked:
				parked++
			case evCrash:
				// A processor died racing the pause; report it so the
				// global replan sees it too.
				*live--
				c.plane.LocalCrash(ev.pe)
			case evIdle:
				// Stale: the worker will park too.
			}
		}
	}
	// Every live hosted worker is parked: state is safe to read (the
	// evParked receive orders their writes before ours). Each surviving
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
			st.Local[t] = c.workers[pe].local[t]
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
		hw.local[imp.Task] = imp.Env
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
	er := c.era.Load()
	next := &era{epoch: p.Epoch, pause: make(chan struct{}), resume: make(chan struct{})}
	c.era.Store(next)
	close(er.resume)
}

// moot reports whether a delivery owed since era er no longer matters:
// er's recovery barrier has formed, or the run has finished.
func (c *controller) moot(er *era) bool {
	select {
	case <-er.pause:
		return true
	case <-c.finish:
		return true
	default:
		return false
	}
}

// stallWatch fails the run if no task completes and no message is
// accepted for the stall timeout: the backstop of a session that hosts
// a share of the machine and so cannot tell a deadlock from a slow peer.
func (c *controller) stallWatch(timeout time.Duration) {
	defer c.bg.Done()
	step := timeout / 4
	if step <= 0 {
		step = time.Millisecond
	}
	tick := time.NewTicker(step)
	defer tick.Stop()
	last := c.progress.Load()
	lastChange := time.Now()
	for {
		select {
		case <-c.done:
			return
		case <-c.finish:
			return
		case <-tick.C:
			cur := c.progress.Load()
			// A quiescent session (all hosted workers idle or parked)
			// legitimately makes no progress while others still work.
			if cur != last || c.quiescent.Load() {
				last = cur
				lastChange = time.Now()
				continue
			}
			if time.Since(lastChange) >= timeout {
				c.fail(fmt.Errorf("exec: run stalled: no progress for %v (%s)", timeout,
					cmp.Or(c.waiting(), "no worker waiting on a message")))
				return
			}
		}
	}
}
