package exec

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the one run lifecycle of the runtime: who is idle, who
// is parked, when the run pauses, plans, resumes and finishes. A run is
// a fleet of members, each hosting some of the machine's processors
// behind a Session; the single-process runner is the fleet of one. The
// Lifecycle owns all of that state and nothing else: no goroutine, no
// lock, no clock, no socket, no log. Its driver (Runner.RunContext for
// one in-process session, wire's coordinator for worker daemons) turns
// what it observes into events, feeds them to Step one at a time from
// one goroutine, and carries out the effects Step returns. Members only
// ever report; every decision is taken here — that the run is finished,
// and that it deadlocked.

// Event is something a driver observed. The concrete types follow.
type Event any

type (
	// Quiet: member W's session reported itself (see Report): on its
	// own when it fell quiet, or, with Answer set, answering a Probe,
	// naming each processor that Waits.
	Quiet struct {
		W int `json:"-"`
		Report
		Answer bool   `json:"a,omitempty"`
		Waits  []Wait `json:"waits,omitempty"`
	}
	// Crash: processor PE died of an injected fault.
	Crash struct{ PE int }
	// Parked: member W reached the barrier a Pause ordered.
	Parked struct {
		W     int
		State *PauseState
	}
	// Returned: member W's session ended cleanly after Finish.
	Returned struct {
		W       int
		Partial *Partial
	}
	// Lost: member W is gone without a goodbye (heartbeat silence).
	Lost struct{ W int }
	// JoinOffer: the worker listening at Addr offers itself to the run.
	// Req is the driver's handle for the answer; exactly one Verdict
	// carries it back, as for DrainReq.
	JoinOffer struct {
		Addr string
		Req  any
	}
	// JoinDialed: the Dial effect for Addr completed (Err nil) or failed.
	JoinDialed struct {
		Addr string
		Err  error
	}
	// DrainReq asks for member Worker (or, when negative, the active
	// member listening at Addr) to leave gracefully.
	DrainReq struct {
		Worker int
		Addr   string
		Req    any
	}
)

// Effect is something the driver must now do. Pause is answered by a
// Parked event, Finish by Returned, Probe by Quiet, Dial by JoinDialed;
// the rest are fire and forget.
type Effect any

type (
	// Pause orders member W to the barrier; Checkpoint asks it to hand
	// over its full local state (it is being drained).
	Pause struct {
		W          int
		Checkpoint bool
	}
	// Resume releases parked member W into Plan's era.
	Resume struct {
		W    int
		Plan *ResumePlan
	}
	// Start launches member W, admitted mid-run, directly in Plan's era.
	Start struct {
		W    int
		Plan *ResumePlan
	}
	// Finish tells member W the run is globally complete.
	Finish struct{ W int }
	// Probe asks member W for its Report as of now, answered by a Quiet:
	// the confirming read of a deadlock (see settle).
	Probe struct{ W int }
	// Bye dismisses member W: nothing more will be asked of it.
	Bye struct{ W int }
	// Dial asks for a connection to the worker offered at Addr.
	Dial struct{ Addr string }
	// Verdict answers the JoinOffer or DrainReq that carried Req.
	Verdict struct {
		Req any
		Err error
	}
	// Done ends the run. Trace is unsorted and Elapsed unset: the driver
	// owns the clock and may have connection events of its own to add.
	Done struct{ Result *Result }
)

// Drain rejections that mean the run does not (or no longer) involve
// the worker, as opposed to a real obstacle. Match with errors.Is.
var (
	ErrNoSuchWorker   = errors.New("no such worker")
	ErrAlreadyDrained = errors.New("already drained")
	ErrAlreadyLost    = errors.New("already lost")
)

type phase int

const (
	running   phase = iota // members execute their slot lists
	pausing                // a barrier is forming: Pause sent, Parked awaited
	finishing              // every member idle: Finish sent, partials awaited
)

// member is the lifecycle's view of one session.
type member struct {
	w    int
	addr string

	// rep is the member's latest report of the era, if heard; asked
	// counts the probes it has still to answer, and confirmed says the
	// answer to the latest was rep, naming waits.
	rep       Report
	heard     bool
	asked     int
	confirmed bool
	waits     []Wait

	lost    bool
	pending bool // admitted mid-run, not yet integrated at a barrier
	drained bool // departed gracefully; state handed over
	parked  *PauseState
	result  *Partial
}

// active reports whether the member takes part in the run protocol:
// lost and drained members are out, a pending joiner is not yet in.
func (m *member) active() bool { return !m.lost && !m.drained && !m.pending }

// Lifecycle is the state of one run. See the file comment.
type Lifecycle struct {
	s          *sched.Schedule
	flat       *graph.Flat
	runner     *Runner
	minWorkers int

	members []*member
	peerOf  []int // processor -> member; the one record of who hosts what
	dead    []bool
	epoch   int64
	phase   phase
	probing bool // every member has been probed on its latest report

	// At most one join or drain is in flight at a time; crashes fold
	// into whatever barrier is already forming.
	draining, joining *member
	drainReq, joinReq any
	joinAddr          string // offered worker being dialed

	saved      []*Partial    // drained members' print lines and trace events
	extra      []trace.Event // events no session recorded: replans, departures
	recoveries int64         // crash-recovery barriers committed

	now machine.Time // of the Step in progress
	out []Effect     // of the Step in progress
}

// NewLifecycle starts a run whose member w listens at addrs[w] and
// hosts the processors peerOf maps to it. r supplies VirtualTime and
// the Stats the finished run is added to; minWorkers is the smallest fleet a
// drain may leave behind (below 1 means 1).
func NewLifecycle(s *sched.Schedule, flat *graph.Flat, r *Runner, addrs []string, peerOf []int, minWorkers int) *Lifecycle {
	l := &Lifecycle{s: s, flat: flat, runner: r, minWorkers: max(minWorkers, 1),
		peerOf: append([]int(nil), peerOf...), dead: make([]bool, len(peerOf))}
	for w, a := range addrs {
		l.members = append(l.members, &member{w: w, addr: a})
	}
	return l
}

// Members counts every member the run ever had; a join grows it.
func (l *Lifecycle) Members() int { return len(l.members) }

// PeerOf maps each processor to the member hosting it (or, for a dead
// processor, the one that last did). The caller must not modify it.
func (l *Lifecycle) PeerOf() []int { return l.peerOf }

// Home returns the member hosting processor pe and whether that member
// is still there to be talked to; -1 for a processor off the machine.
func (l *Lifecycle) Home(pe int) (int, bool) {
	if pe < 0 || pe >= len(l.peerOf) {
		return -1, false
	}
	m := l.members[l.peerOf[pe]]
	return m.w, !m.lost && !m.drained
}

func (l *Lifecycle) emit(e Effect) { l.out = append(l.out, e) }

// from returns member w, or nil when it has left the run: late traffic
// from a lost or drained member is ignored.
func (l *Lifecycle) from(w int) *member {
	if w < 0 || w >= len(l.members) || l.members[w].lost || l.members[w].drained {
		return nil
	}
	return l.members[w]
}

// Step advances the run by one event observed at time now and returns
// what the driver must do about it. An error is the run's root cause:
// the driver tears everything down and reports it.
func (l *Lifecycle) Step(ev Event, now machine.Time) ([]Effect, error) {
	l.now, l.out = now, nil
	var err error
	switch e := ev.(type) {
	case Quiet:
		// A report into a forming barrier, or from an era it replaced, is
		// stale: the member parks, and reports again in the next era.
		if m := l.from(e.W); m != nil && l.phase == running && e.Epoch == l.epoch {
			err = l.quiet(m, e)
		}
	case Crash:
		if e.PE < 0 || e.PE >= len(l.dead) {
			return nil, fmt.Errorf("wire: crash report for unknown processor %d", e.PE)
		}
		if !l.dead[e.PE] {
			l.dead[e.PE] = true
			// Once every session has Finish no barrier can complete, and
			// the crashed processor's results are unrecoverable.
			err = l.died(fmt.Errorf("wire: processor %d crashed while the run was finishing; its results are lost", e.PE))
		}
	case Parked:
		if m := l.from(e.W); m != nil {
			err = l.parked(m, e.State)
		}
	case Returned:
		if m := l.from(e.W); m != nil {
			m.result = e.Partial
			err = l.checkResults()
		}
	case Lost:
		if m := l.from(e.W); m != nil {
			err = l.lost(m)
		}
	case JoinOffer:
		l.joinOffer(e)
	case JoinDialed:
		err = l.joinDialed(e)
	case DrainReq:
		err = l.drain(e)
	default:
		err = fmt.Errorf("exec: unknown lifecycle event %T", ev)
	}
	return l.out, err
}

// quiet takes member m's report, or its answer to a probe. Only the
// answer to the latest probe can confirm; any report unlike the one the
// member was probed on replaces it and calls the probes off.
func (l *Lifecycle) quiet(m *member, q Quiet) error {
	if q.Answer {
		m.asked--
	}
	switch {
	case !m.heard || m.rep != q.Report:
		m.rep, m.heard, l.probing = q.Report, true, false
	case q.Answer && m.asked == 0 && l.probing:
		m.confirmed, m.waits = true, q.Waits
	default:
		return nil
	}
	return l.settle()
}

// settle decides on every active member's latest report. All of them
// idle finishes the run. All quiet, somebody waiting and as many copies
// taken in as were handed out is a deadlock candidate: every member is
// probed, and the run deadlocked if each answers with the report it was
// probed on. Then nothing moved between the two reads, and nothing can
// move again (Mattern's counting rule: every quiet member can be woken
// only by a copy, and none is on its way).
func (l *Lifecycle) settle() error {
	var sent, recv int64
	var waits []Wait
	waiting, confirmed := false, true
	for _, m := range l.members {
		if !m.active() {
			continue
		}
		if !m.heard || m.rep.Busy {
			return nil
		}
		sent, recv = sent+m.rep.Sent, recv+m.rep.Recv
		waiting, confirmed = waiting || m.rep.Waiting, confirmed && m.confirmed
		waits = append(waits, m.waits...)
	}
	switch {
	case !waiting:
		l.phase = finishing
	case sent != recv:
		return nil
	case !l.probing:
		l.probing = true
	case confirmed:
		slices.SortStableFunc(waits, func(a, b Wait) int { return cmp.Compare(a.PE, b.PE) })
		lines := make([]string, len(waits))
		for i, w := range waits {
			lines[i] = w.Line
		}
		return fmt.Errorf("exec: run deadlocked: %s", strings.Join(lines, "; "))
	default:
		return nil
	}
	for _, m := range l.members {
		switch {
		case !m.active():
		case l.phase == finishing:
			l.emit(Finish{m.w})
		default:
			m.asked, m.confirmed = m.asked+1, false
			l.emit(Probe{m.w})
		}
	}
	return nil
}

// died reacts to processors newly added to the dead mask: a running
// fleet goes to the barrier, a forming barrier absorbs them (and may
// have been waiting on nothing else), a finishing run is past saving.
func (l *Lifecycle) died(whileFinishing error) error {
	if !slices.Contains(l.dead, false) {
		return errors.New("exec: all processors crashed")
	}
	switch l.phase {
	case pausing:
		return l.checkParked()
	case finishing:
		return whileFinishing
	}
	return l.startPause()
}

func (l *Lifecycle) parked(m *member, st *PauseState) error {
	switch l.phase {
	case finishing:
		// A stale barrier reply racing the finish decision (a frame
		// replayed after a reconnect): there is no barrier to fold it
		// into, and nothing wrong with the run.
		return nil
	case running:
		return fmt.Errorf("wire: worker %d parked outside a pause", m.w)
	}
	m.parked = st
	// A session lists every processor that ever crashed on it; one that
	// a join has since revived elsewhere is no longer its to speak for.
	for _, pe := range st.Dead {
		if pe >= 0 && pe < len(l.dead) && l.peerOf[pe] == m.w {
			l.dead[pe] = true
		}
	}
	return l.died(nil)
}

// lost retires a member that vanished: its processors join the dead
// mask exactly as if each had crashed, and a fleet change waiting on
// it degrades to a plain recovery.
func (l *Lifecycle) lost(m *member) error {
	m.lost = true
	l.extra = append(l.extra, trace.Event{Kind: trace.PeerLost, At: l.now, Peer: m.w, Note: "heartbeat lost"})
	if m == l.draining {
		l.draining = nil
		l.verdict(&l.drainReq, fmt.Errorf("worker %d crashed while draining; recovering instead", m.w))
	}
	if m == l.joining {
		l.joining = nil
		l.verdict(&l.joinReq, fmt.Errorf("joining worker %s died before integration", m.addr))
	}
	l.retire(m, l.dead)
	// After Finish its partial result is unrecoverable.
	return l.died(fmt.Errorf("wire: worker %d lost while collecting results", m.w))
}

// retire marks every processor m hosts dead in mask.
func (l *Lifecycle) retire(m *member, mask []bool) {
	for pe, w := range l.peerOf {
		if w == m.w {
			mask[pe] = true
		}
	}
}

func (l *Lifecycle) verdict(req *any, err error) {
	l.emit(Verdict{*req, err})
	*req = nil
}

// startPause orders every active member to the barrier. A drain target
// is asked to checkpoint: its Parked reply carries its full local state.
func (l *Lifecycle) startPause() error {
	l.phase, l.probing = pausing, false
	for _, m := range l.members {
		if m.active() {
			m.parked = nil
			l.emit(Pause{m.w, m == l.draining})
		}
	}
	return l.checkParked()
}

// checkParked plans and releases the next era once every active member
// is at the barrier. Whatever fleet change rode the barrier is settled
// with it: a crash recovery (shrink), a drain (planned shrink, the
// target's results re-homed through imports), a join (every dead
// processor revives on the joiner), or a crash folded into either.
// What the era looks like is PlanResume's decision; this works out who
// is in it and commits the membership.
func (l *Lifecycle) checkParked() error {
	for _, m := range l.members {
		if m.active() && m.parked == nil {
			return nil
		}
	}
	dr, jn := l.draining, l.joining
	l.draining, l.joining = nil, nil
	if dr != nil {
		// Members lost while the barrier formed may have made the target
		// indispensable: it stays, and the barrier is a plain recovery.
		if err := l.drainBlocked(dr); err != nil {
			l.verdict(&l.drainReq, err)
			dr = nil
		}
	}
	b := Barrier{Epoch: l.epoch + 1, Dead: append([]bool(nil), l.dead...),
		Cause: "recovery", Now: l.now, VirtualTime: l.runner.VirtualTime}
	if jn != nil {
		b.Cause = "join"
		clear(b.Dead)
	}
	if dr != nil {
		b.Cause, b.Drained = "drain", dr.parked
		l.retire(dr, b.Dead)
	}
	for _, m := range l.members {
		if m.active() && m != dr {
			b.Parked = append(b.Parked, m.parked)
		}
	}
	plan, events, err := PlanResume(l.s, l.flat, b)
	if err != nil {
		return err
	}
	l.extra = append(l.extra, events...)
	if jn != nil {
		for pe, d := range l.dead {
			if d {
				l.peerOf[pe] = jn.w
			}
		}
	}
	l.dead, l.epoch, l.phase = b.Dead, b.Epoch, running
	for _, m := range l.members {
		// Every member reports afresh in the new era; probes of the old
		// one are answered with reports of it, which Step drops.
		m.heard, m.asked, m.confirmed, m.waits = false, 0, false, nil
		if m.active() && m != dr {
			l.emit(Resume{m.w, plan})
		}
	}
	if dr != nil {
		// The target departs with everything handed over: its print
		// lines and trace events wait here for the final merge.
		l.saved = append(l.saved, &Partial{Printed: dr.parked.Printed,
			PrintedPE: dr.parked.PrintedPE, Events: dr.parked.Events})
		dr.drained = true
		at := b.Now
		if b.VirtualTime {
			at = plan.Clock
		}
		l.extra = append(l.extra, trace.Event{Kind: trace.WorkerDrained, At: at, Peer: dr.w, Note: dr.addr})
		l.emit(Bye{dr.w})
		l.verdict(&l.drainReq, nil)
	}
	if jn != nil {
		jn.pending = false
		l.emit(Start{jn.w, plan})
		l.verdict(&l.joinReq, nil)
	}
	if b.Cause == "recovery" {
		l.recoveries++
	}
	return nil
}

// joinBlocked says why a join cannot proceed right now (nil: it can);
// busy words the rejection for a barrier or fleet change in flight.
func (l *Lifecycle) joinBlocked(busy string) error {
	switch {
	case l.phase == finishing:
		// There is nothing left to start a newcomer with.
		return errors.New("run is finishing; not accepting joins")
	case l.phase != running || l.joinAddr != "":
		return errors.New(busy)
	}
	if !slices.Contains(l.dead, true) {
		return errors.New("no free capacity: every processor is live")
	}
	return nil
}

func (l *Lifecycle) joinOffer(e JoinOffer) {
	// An offer from an address already serving the run is acknowledged
	// without change: announce loops retry until welcomed, and a
	// welcome may be lost.
	for _, m := range l.members {
		if m.active() && m.addr == e.Addr {
			l.emit(Verdict{e.Req, nil})
			return
		}
	}
	if err := l.joinBlocked("a recovery or fleet change is in progress; retry"); err != nil {
		l.emit(Verdict{e.Req, err})
		return
	}
	// The dial happens off the driver's loop; the run moves on meanwhile
	// and the join is validated again when the dial reports back.
	l.joinAddr, l.joinReq = e.Addr, e.Req
	l.emit(Dial{e.Addr})
}

func (l *Lifecycle) joinDialed(e JoinDialed) error {
	if e.Addr != l.joinAddr {
		return nil
	}
	l.joinAddr = ""
	err := e.Err
	if err != nil {
		err = fmt.Errorf("cannot dial announced worker %s: %v", e.Addr, err)
	} else {
		err = l.joinBlocked("a recovery started while the join was connecting; retry")
	}
	if err != nil {
		l.verdict(&l.joinReq, err)
		return nil
	}
	l.joining = &member{w: len(l.members), addr: e.Addr, pending: true}
	l.members = append(l.members, l.joining)
	l.extra = append(l.extra, trace.Event{Kind: trace.PeerConnected, At: l.now, Peer: l.joining.w, Note: "join"})
	return l.startPause()
}

func (l *Lifecycle) drain(e DrainReq) error {
	var target *member
	for _, m := range l.members {
		if e.Worker == m.w || e.Worker < 0 && e.Addr != "" && e.Addr == m.addr && m.active() {
			target = m
		}
	}
	var err error
	switch {
	case target == nil:
		err = ErrNoSuchWorker
	case target.drained:
		err = fmt.Errorf("worker %d %w", target.w, ErrAlreadyDrained)
	case target.lost:
		err = fmt.Errorf("worker %d %w", target.w, ErrAlreadyLost)
	case target.pending:
		err = fmt.Errorf("worker %d still joining; retry", target.w)
	case l.phase == finishing:
		err = errors.New("run is finishing; nothing to drain")
	case l.phase != running || l.joinAddr != "":
		err = errors.New("a recovery or fleet change is in progress; retry")
	default:
		err = l.drainBlocked(target)
	}
	if err != nil {
		l.emit(Verdict{e.Req, err})
		return nil
	}
	l.draining, l.drainReq = target, e.Req
	return l.startPause()
}

// drainBlocked says why target cannot leave (nil: it can): the fleet
// must keep its minimum of members and at least one live processor.
// Asked when the drain is requested and again when its barrier is
// complete — other members may have been lost in between.
func (l *Lifecycle) drainBlocked(target *member) error {
	live, remaining := 0, 0
	for _, m := range l.members {
		if m.active() {
			live++
		}
	}
	for pe, d := range l.dead {
		if !d && l.peerOf[pe] != target.w {
			remaining++
		}
	}
	switch {
	case live-1 < l.minWorkers:
		return fmt.Errorf("drain would leave %d workers; the minimum is %d", live-1, l.minWorkers)
	case remaining == 0:
		return errors.New("drain would leave no live processors")
	}
	return nil
}

// checkResults assembles the run's result once every active member
// delivered its partial. Drained members' handed-over print lines and
// trace events merge ahead of the survivors' partials; processor tags
// keep print order stable.
func (l *Lifecycle) checkResults() error {
	parts := append([]*Partial(nil), l.saved...)
	for _, m := range l.members {
		if !m.active() {
			continue
		}
		if m.result == nil {
			return nil
		}
		parts = append(parts, m.result)
	}
	outputs, printed, err := MergePartials(parts...)
	if err != nil {
		return err
	}
	// The trace is a run's largest allocation, so it is made once: a lone
	// session's log, as Wait handed it over, is taken over when it has
	// room for the lifecycle's events; otherwise the run's log is made at
	// its size, with room for the connect and the byte count per member
	// that a fleet's driver logs after Done, and each partial's events,
	// encoded ones too, land in it directly.
	n := len(l.extra)
	for _, p := range parts {
		n += len(p.Events) + p.NumEvents
	}
	tr := &trace.Trace{Label: "run:" + l.s.Algorithm}
	if len(parts) == 1 && parts[0].AppendEvents == nil && cap(parts[0].Events) >= n {
		tr.Events = parts[0].Events
	} else {
		tr.Events = make([]trace.Event, 0, n+2*len(l.members))
		for _, p := range parts {
			if tr.Events = append(tr.Events, p.Events...); p.AppendEvents != nil {
				if tr.Events, err = p.AppendEvents(tr.Events); err != nil {
					return err
				}
			}
		}
	}
	tr.Events = append(tr.Events, l.extra...)
	// The run is counted here, once, from the log it just made.
	if st := l.runner.Stats; st != nil {
		st.Add(runCounts(tr.Events, l.recoveries, parts))
	}
	for _, m := range l.members {
		if m.active() {
			l.emit(Bye{m.w})
		}
	}
	l.emit(Done{&Result{Outputs: outputs, Printed: printed, Trace: tr}})
	return nil
}
