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

	bg sync.WaitGroup // owed-delivery goroutines (see later) and stallWatch

	workers   []*worker
	faults    *faultState
	retry     bool
	checksums bool
	now       func() machine.Time
	stats     *Stats
}

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

// later runs f, which owes the session a delivery, in the background
// after wall-clock delay d — or not at all if the run ends first. The
// debt is in the busy count from before the sender moves on until f
// returns, so a session waiting on it is never taken for starved.
func (c *controller) later(d time.Duration, f func()) {
	c.bg.Add(1)
	c.busy.Add(1)
	go func() {
		defer c.bg.Done()
		defer c.retire()
		if d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-t.C:
			case <-c.done:
				return
			case <-c.finish:
				return
			}
		}
		f()
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
		st.Events = append(st.Events, c.extraSnapshot()...)
		for pe := 0; pe < c.numPE; pe++ {
			w := c.workers[pe]
			if w == nil {
				continue
			}
			// A crashed worker's trace survives, like in Wait; its
			// printed lines died with it.
			st.Events = append(st.Events, w.events...)
			if w.dead {
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

// extraSnapshot copies the coordinator-emitted events under the lock.
func (c *controller) extraSnapshot() []trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]trace.Event(nil), c.extra...)
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

// sendRemote hands a cross-process delivery to the remote plane.
// Injected duplicate/drop faults were applied by the caller (copies)
// and delay faults became wallDelay. The exec-level ack/retry protocol
// does not span processes — the transport delivers reliably and in
// order on its own — so when the retry protocol is on, an injected
// drop or corruption is healed here by emulating the one
// retransmission the in-process ack loop would have sent: the receiver
// discards the corrupt copy by checksum and absorbs duplicates by
// sequence number. Without retry, the loss starves the receiver,
// exactly as on the direct in-process path. handed reports whether the
// plane now holds the message, which the sender's burst then owes a
// flush; delayed and retried copies flush themselves (deliverLate).
func (c *controller) sendRemote(m xmsg, k *msgKey, orig pits.Value, toPE, copies int, wallDelay time.Duration) (handed bool, err error) {
	rm := RemoteMsg{From: k.from, To: k.to, Var: k.v,
		FromPE: m.fromPE, ToPE: toPE, Seq: m.seq, Epoch: m.epoch,
		At: m.at, Sum: m.sum, Val: m.val}
	if c.retry && (copies == 0 || (m.sum != 0 && m.sum != checksum(m.val))) {
		c.retransmitRemote(rm, orig, wallDelay)
	}
	if copies == 0 {
		return false, nil
	}
	if wallDelay > 0 {
		er := c.era.Load()
		c.later(wallDelay, func() { c.deliverLate(er, rm, copies) })
		return false, nil
	}
	for i := 0; i < copies; i++ {
		c.stats.RemoteSends.Add(1)
		if err := c.plane.DeliverRemote(rm); err != nil {
			return true, fmt.Errorf("remote delivery to PE %d: %w", toPE, err)
		}
	}
	return true, nil
}

// flushRemote ends a burst that handed the remote plane a message.
func (c *controller) flushRemote() {
	c.stats.RemoteFlushes.Add(1)
	c.plane.FlushRemote()
}

// retransmitRemote re-ships the uncorrupted payload of a remote
// message after one retry backoff, standing in for the in-process
// ack/retransmit loop across a process boundary.
func (c *controller) retransmitRemote(rm RemoteMsg, orig pits.Value, wallDelay time.Duration) {
	rm.Val = orig
	if rm.Sum != 0 {
		rm.Sum = checksum(orig)
	}
	er := c.era.Load()
	c.later(wallDelay+c.runner.retryBase(), func() {
		if c.moot(er) {
			return
		}
		c.addEvent(trace.Event{Kind: trace.MsgRetry, At: c.stamp(rm.At), Task: rm.From,
			PE: rm.FromPE, Var: rm.Var, Peer: rm.ToPE, Seq: rm.Seq, Note: "attempt 1"})
		c.stats.Retries.Add(1)
		c.deliverLate(er, rm, 1)
	})
}

// deliverLate makes, from the background, a remote delivery owed since
// era er. Once er's recovery barrier has formed, or the run has
// finished, the delivery is moot: receivers discard a replaced era's
// messages, and the replan re-sends what the next era needs. So it is
// skipped, and a failure it meets is not the run's — the peer may
// rightly have dropped its link to a process whose processors the replan
// gave up.
func (c *controller) deliverLate(er *era, rm RemoteMsg, copies int) {
	if c.moot(er) {
		return
	}
	for i := 0; i < copies; i++ {
		c.stats.RemoteSends.Add(1)
		if err := c.plane.DeliverRemote(rm); err != nil {
			if !c.moot(er) {
				c.fail(fmt.Errorf("exec: remote delivery to PE %d: %w", rm.ToPE, err))
			}
			return
		}
	}
	// The delivery is a burst of its own, outside any slot's sends.
	c.flushRemote()
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
