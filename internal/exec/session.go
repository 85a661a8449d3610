package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Session is one member's share of a running schedule: the worker
// goroutines of its hosted processors plus the coordinator loop that
// watches them. It is driven from outside through Deliver/Pause/
// Resume/FinishRun and reports through its RemotePlane; a
// single-process Run is one session hosting every processor, a
// distributed run one session per worker daemon, and the same
// Lifecycle sits behind either.
type Session struct {
	runner    *Runner
	s         *sched.Schedule
	flat      *graph.Flat
	ctrl      *controller
	era0      *eraPlan
	log       []trace.Event // the workers' event logs, one stretch each (see controller.eventLog)
	start     time.Time
	wg        sync.WaitGroup
	coordDone chan struct{}
}

// StartSession validates the schedule and launches the hosted workers.
// hosted flags which processors run in this session; plane carries
// deliveries to the rest of the machine and hears this session's quiet
// spells and crashes.
func (r *Runner) StartSession(s *sched.Schedule, flat *graph.Flat, hosted []bool, plane RemotePlane) (*Session, error) {
	ses, err := r.buildSession(s, flat, hosted, plane)
	if err != nil {
		return nil, err
	}
	ses.launch()
	return ses, nil
}

// StartSessionFrom builds a session that enters a run already in
// flight — a worker joining mid-run at the epoch barrier. The plan is
// the same global replan the surviving sessions install with Resume:
// the new session derives its hosted share from it, installs any
// imports and adoptions, and starts directly in plan.Epoch with its
// virtual clocks at plan.Clock.
func (r *Runner) StartSessionFrom(s *sched.Schedule, flat *graph.Flat, hosted []bool, plane RemotePlane, plan *ResumePlan) (*Session, error) {
	if plan == nil {
		return nil, fmt.Errorf("exec: nil resume plan for mid-run session")
	}
	ses, err := r.buildSession(s, flat, hosted, plane)
	if err != nil {
		return nil, err
	}
	c := ses.ctrl
	if len(plan.Dead) != c.numPE {
		return nil, fmt.Errorf("exec: resume plan flags %d processors, machine has %d", len(plan.Dead), c.numPE)
	}
	ep, err := eraOf(s, flat, plan)
	if err != nil {
		return nil, err
	}
	c.installPlan(plan, ep)
	for _, w := range c.workers {
		if w != nil {
			w.clock = plan.Clock
		}
	}
	c.era.Store(&era{epoch: plan.Epoch})
	c.epoch = plan.Epoch
	ses.launch()
	return ses, nil
}

// buildSession validates the schedule and constructs the session's
// controller and workers without launching any goroutine, so mid-run
// joins can rewrite era state first.
func (r *Runner) buildSession(s *sched.Schedule, flat *graph.Flat, hosted []bool, plane RemotePlane) (*Session, error) {
	if s == nil || flat == nil || s.Graph == nil || s.Machine == nil {
		return nil, fmt.Errorf("exec: nil schedule or design")
	}
	numPE := s.Machine.NumPE()
	if len(hosted) != numPE {
		return nil, fmt.Errorf("exec: %d hosted flags for %d processors", len(hosted), numPE)
	}
	if plane == nil {
		return nil, fmt.Errorf("exec: a session needs a remote plane")
	}
	// Fail fast on missing external inputs: one clear error before any
	// worker spawns, instead of a root-cause-plus-cascade report.
	if err := r.checkInputs(flat); err != nil {
		return nil, err
	}

	// The schedule's own era: every routine parsed, every message given
	// its ordinal; fails fast, before any worker spawns.
	plan, err := era0(s, flat)
	if err != nil {
		return nil, err
	}

	faults := newFaultState(r.Faults)
	start := time.Now()
	now := func() machine.Time { return machine.Time(time.Since(start).Microseconds()) }

	ctrl := &controller{
		runner: r, numPE: numPE,
		hosted: make([]atomic.Bool, numPE), plane: plane,
		cmds:   make(chan sessCmd),
		quiet:  make(chan struct{}, 1),
		done:   make(chan struct{}),
		finish: make(chan struct{}),
		events: make(chan wevent, numPE*4+16),
		faults: faults, retry: r.Retry, checksums: faults.checksums,
		now: now,
	}
	for pe, h := range hosted {
		ctrl.hosted[pe].Store(h)
	}
	// Every hosted worker starts out busy.
	ctrl.busy.Store(int64(ctrl.numLocal()))
	ctrl.era.Store(&era{})

	// The hosted workers log into consecutive stretches of one array, each
	// as long as a fault-free pass over its share of the era logs.
	logged := 0
	for pe := range plan.pes {
		if ctrl.isLocal(pe) {
			logged += plan.pes[pe].events
		}
	}
	log, off := plan.takeLog(logged), 0
	workers := make([]*worker, numPE)
	for pe := 0; pe < numPE; pe++ {
		if !ctrl.isLocal(pe) {
			continue
		}
		workers[pe] = &worker{
			pe: pe, runner: r, sched: s, ctrl: ctrl,
			inbox: newMailbox(&ctrl.busy), interp: pits.Interp{MaxSteps: r.MaxSteps},
			outputs: pits.Env{}, exports: map[string]graph.NodeID{},
			local:  make(map[graph.NodeID][]pits.Value, len(plan.pes[pe].slots)),
			events: log[off : off : off+plan.pes[pe].events],
		}
		off += plan.pes[pe].events
		workers[pe].assign(plan, 0)
	}
	ctrl.workers = workers

	ses := &Session{
		runner: r, s: s, flat: flat, ctrl: ctrl, era0: plan, log: log,
		start: start, coordDone: make(chan struct{}),
	}
	return ses, nil
}

// launch spawns the session's coordinator and worker goroutines. Era
// state must be final before launch.
func (ses *Session) launch() {
	ctrl := ses.ctrl
	go func() {
		ctrl.coordinate()
		close(ses.coordDone)
	}()

	for _, w := range ses.ctrl.workers {
		if w == nil {
			continue
		}
		ses.wg.Add(1)
		go func(w *worker) {
			defer ses.wg.Done()
			if w.err = w.run(); w.err != nil {
				ctrl.abort()
			}
		}(w)
	}
}

// Deliver injects a message that arrived from another process into the
// hosting processor's mailbox, and counts it with its era (see Report).
// Late deliveries after completion are dropped; deliveries after an
// abort report it. This is the process boundary, the one place a
// message travels by name: the receiving worker turns the name into its
// ordinal once, in the message's own era (see admit).
func (ses *Session) Deliver(m RemoteMsg) error {
	c := ses.ctrl
	if m.ToPE < 0 || m.ToPE >= c.numPE || !c.isLocal(m.ToPE) {
		return fmt.Errorf("exec: delivery for PE %d, which is not hosted here", m.ToPE)
	}
	x := xmsg{name: &msgKey{m.From, m.To, m.Var}, val: m.Val, fromPE: m.FromPE,
		at: m.At, seq: m.Seq, epoch: m.Epoch, sum: m.Sum}
	c.mu.Lock()
	ok := c.deliver(x, m.ToPE)
	if d := m.Epoch - c.epoch; ok && (d == 0 || d == 1) {
		c.recv[d]++
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("exec: session aborted")
	}
	if c.busy.Load() == 0 {
		// Nobody woke for it, so no worker will report the new count.
		c.quiesce()
	}
	return nil
}

// Probe asks the session for its report as of now, naming every blocked
// processor: the run Lifecycle's confirming read before it calls a
// deadlock. The answer comes through the plane, behind every report the
// session made before it, and the driver sets its member.
func (ses *Session) Probe() {
	ses.ctrl.probes.Add(1)
	ses.ctrl.quiesce()
}

// Elapsed is the wall-clock time since the session started.
func (ses *Session) Elapsed() time.Duration { return time.Since(ses.start) }

// command round-trips one request through the coordinator loop.
func (ses *Session) command(cmd sessCmd) (*PauseState, error) {
	c := ses.ctrl
	cmd.reply = make(chan *PauseState, 1)
	select {
	case c.cmds <- cmd:
	case <-c.done:
		return nil, fmt.Errorf("exec: session aborted")
	case <-c.finish:
		return nil, fmt.Errorf("exec: session already finished")
	}
	select {
	case st := <-cmd.reply:
		return st, nil
	case <-c.done:
		return nil, fmt.Errorf("exec: session aborted")
	}
}

// Pause drives every live hosted worker to the recovery barrier and
// reports the state the coordinator needs to replan: surviving task
// results, exported outputs, local deaths and the virtual clock. With
// checkpoint set (a graceful drain) it additionally packs the full
// worker-local env checkpoint, print lines and trace events into the
// PauseState, so the coordinator can re-home this process's entire
// contribution to the run before the process departs.
func (ses *Session) Pause(checkpoint bool) (*PauseState, error) {
	st, err := ses.command(sessCmd{checkpoint: checkpoint})
	if err == nil && st == nil {
		err = fmt.Errorf("exec: session aborted during pause")
	}
	return st, err
}

// Resume installs the recovery plan's hosted share and releases the
// parked workers into the new era. Only legal after Pause.
func (ses *Session) Resume(p *ResumePlan) error {
	if p == nil || len(p.Dead) != ses.ctrl.numPE {
		return fmt.Errorf("exec: malformed resume plan")
	}
	ep, err := eraOf(ses.s, ses.flat, p)
	if err != nil {
		return err
	}
	_, err = ses.command(sessCmd{plan: p, era: ep})
	return err
}

// FinishRun declares the run globally complete (every process idle);
// hosted workers unwind and Wait can collect the partial result.
func (ses *Session) FinishRun() { ses.ctrl.complete() }

// Abort fails the session with the given root cause.
func (ses *Session) Abort(err error) { ses.ctrl.fail(err) }

// Release hands the session's event log back to the schedule's era, for
// the next session of it in this process to log into. Call it after Wait,
// once its partial is read for the last time: the partial's events may
// be that log. A run whose log becomes its Result.Trace never calls it.
func (ses *Session) Release() {
	ses.era0.mu.Lock()
	defer ses.era0.mu.Unlock()
	if ses.log != nil {
		ses.era0.spare, ses.log = append(ses.era0.spare, ses.log), nil
	}
}

// Wait blocks until the session has fully unwound and returns this
// process's partial result, or the run's root-cause error(s).
func (ses *Session) Wait() (*Partial, error) {
	ses.wg.Wait()
	<-ses.coordDone
	ses.ctrl.bg.Wait()

	// One failing worker aborts the run, which makes every other worker
	// fail too ("aborted while sending/waiting"). Those cascade errors
	// are consequences, not causes: report the originating failures
	// first and fold the cascade into a count so the root cause is the
	// first thing the user reads.
	var roots, cascades []error
	if ses.ctrl.runErr != nil {
		roots = append(roots, ses.ctrl.runErr)
	}
	for _, w := range ses.ctrl.workers {
		if w == nil || w.err == nil {
			continue
		}
		e := fmt.Errorf("PE %d: %w", w.pe, w.err)
		if errors.Is(w.err, errAborted) {
			cascades = append(cascades, e)
		} else {
			roots = append(roots, e)
		}
	}
	switch {
	case len(roots) > 0 && len(cascades) > 0:
		return nil, fmt.Errorf("%w\n(%d other workers aborted in cascade)", errors.Join(roots...), len(cascades))
	case len(roots) > 0:
		return nil, errors.Join(roots...)
	case len(cascades) > 0:
		// Shouldn't happen — an abort always has an originating failure
		// — but never swallow an error.
		return nil, errors.Join(cascades...)
	}

	p := &Partial{Outputs: pits.Env{}, Exports: map[string]graph.NodeID{}, Events: ses.ctrl.eventLog(ses.log),
		RemoteSends: ses.ctrl.sends, RemoteFlushes: ses.ctrl.lateFlushes}
	for _, w := range ses.ctrl.workers {
		if w != nil {
			p.RemoteFlushes += w.flushes
		}
		// A crashed worker's results died with it: recovery recomputed
		// them elsewhere.
		if w == nil || w.dead {
			continue
		}
		for k, v := range w.outputs {
			p.Outputs[k] = v
		}
		for v, task := range w.exports {
			// Collisions between workers of one process are caught
			// here; MergePartials catches the cross-process ones.
			if prev, clash := p.Exports[v]; clash && prev != task {
				return nil, exportCollision(v, prev, task)
			}
			p.Exports[v] = task
		}
		p.Printed = append(p.Printed, w.printed...)
		for range w.printed {
			p.PrintedPE = append(p.PrintedPE, w.pe)
		}
	}
	return p, nil
}
