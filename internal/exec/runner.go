package exec

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Runner executes a scheduled Banger program for real: one goroutine
// and one unbounded mailbox per processor of the target machine, and
// each task's PITS routine interpreted on actual data. Timing comes
// from the wall clock, so the trace shows genuine parallel execution;
// correctness of results is independent of interleaving because PITS
// routines are deterministic (rand() is seeded per task name).
//
// The runner is fault-tolerant: an optional FaultPlan injects crashes
// and message faults at reproducible points, a lost message is reported
// as a deadlock naming the edge and both processors the moment nothing
// can move any more, Retry resends each dropped or corrupted copy
// once, and a crashed processor triggers recovery — surviving workers
// pause at a barrier while sched.Replan replans the lost work onto live
// processors, then the run resumes and produces the same outputs a
// fault-free run would.
type Runner struct {
	// Inputs provides the design's external data: values for every
	// variable that flows from writer-less storage cells
	// (graph.Flat.ExternalIn).
	Inputs pits.Env
	// MaxSteps bounds each routine's interpreter steps (0 = default).
	MaxSteps int64
	// VirtualTime switches the trace clock from the wall to the
	// machine model: each worker keeps a virtual clock advanced by
	// ExecTime over the *measured* interpreter ops of every task, and
	// messages carry virtual arrival stamps computed with CommTime.
	// The run still executes in genuine parallel on goroutines, but
	// the resulting trace is deterministic and directly comparable to
	// the scheduler's prediction — when task work was calibrated from
	// a rehearsal, a contention-free schedule's Gantt chart and the
	// virtual-time trace of its real execution coincide exactly.
	VirtualTime bool

	// Faults optionally injects deterministic faults (see FaultPlan).
	Faults *FaultPlan
	// Retry masks injected message faults: a copy the fault plan dropped
	// or corrupted is resent once, uncorrupted, straight behind it, and
	// logged as one MsgRetry; receivers absorb duplicates by sequence
	// number. Nothing is timed, so a virtual-time trace's retries
	// depend on the fault plan alone.
	Retry bool
	// WatchdogMin is ignored; it goes with ROADMAP 3(d), once
	// bench/layers.go:356,492,555 stop setting it.
	WatchdogMin time.Duration

	// Stats, when set, is added each finished run's counts, once (see
	// Stats): a long-running control plane serving back-to-back runs
	// points all of them at one and exposes the running totals.
	Stats *Stats
}

// Result is the outcome of a parallel run.
type Result struct {
	// Outputs holds the variables tasks exported through reader-less
	// storage cells (graph.Flat.ExternalOut).
	Outputs pits.Env
	// Printed collects the print output of all tasks, each line
	// prefixed with "task: ".
	Printed []string
	// Trace holds wall-clock task/message events (microseconds since
	// run start).
	Trace *trace.Trace
	// Elapsed is the wall-clock duration of the whole run.
	Elapsed time.Duration

	spares *spares  // the schedule's, where Release hands the run back
	run    spareRun // what goes back beside the log: an in-process run's era-0 slabs
}

// Release hands the run's log, Trace's events, back to the schedule for
// its next run, and for an in-process run its processors' era-0 arrays
// too. Call it once the result is read for the last time: Trace is left
// empty. A second call does nothing.
func (r *Result) Release() {
	if r.spares != nil {
		r.run.log, r.Trace.Events = r.Trace.Events, nil
		r.spares.put(r.run)
		r.spares = nil
	}
}

// Run executes the schedule against flat, the flattened design the
// schedule was computed from.
func (r *Runner) Run(s *sched.Schedule, flat *graph.Flat) (*Result, error) {
	return r.RunContext(context.Background(), s, flat)
}

// RunContext is Run with cancellation: when ctx is cancelled, the run
// aborts and the cancellation is reported as its root cause.
//
// It is the in-process driver of the run Lifecycle: one member, one
// Session hosting every processor. Quiet reports, crashes, barrier
// states and the final partial arrive on one channel and go through
// Step; the effects that come back are direct calls on the session.
// Every failure aborts the
// session; the lifecycle's (a deadlock, say) is the run's error as the
// lifecycle words it, as across processes, and a worker's or a
// cancellation surfaces through Wait, which words the root cause.
func (r *Runner) RunContext(ctx context.Context, s *sched.Schedule, flat *graph.Flat) (*Result, error) {
	if s == nil || s.Machine == nil {
		return nil, fmt.Errorf("exec: nil schedule or design")
	}
	hosted := make([]bool, s.Machine.NumPE())
	for pe := range hosted {
		hosted[pe] = true
	}
	quit := make(chan struct{})
	defer close(quit)
	plane := localPlane{events: make(chan Event), quit: quit}
	ses, err := r.StartSession(s, flat, hosted, plane)
	if err != nil {
		return nil, err
	}
	go func() {
		if p, err := ses.Wait(); err != nil {
			plane.post(err)
		} else {
			plane.post(Returned{Partial: p})
		}
	}()
	lc := NewLifecycle(s, flat, r, []string{""}, make([]int, len(hosted)), 0)
	var cancelled <-chan struct{}
	if ctx != nil {
		cancelled = ctx.Done()
	}
	var decided error // the lifecycle's verdict, once the session aborts on it
	for {
		var ev Event
		select {
		case <-cancelled:
			ses.Abort(fmt.Errorf("exec: run cancelled: %w", ctx.Err()))
			cancelled = nil
			continue
		case ev = <-plane.events:
		}
		if err, failed := ev.(error); failed {
			return nil, cmp.Or(decided, err)
		}
		effects, err := lc.Step(ev, machine.Time(ses.Elapsed().Microseconds()))
		if err != nil {
			if _, over := ev.(Returned); over {
				return nil, err // the session is gone: nothing left to abort or wait for
			}
			decided = cmp.Or(decided, err)
			ses.Abort(err)
		}
		for _, ef := range effects {
			switch e := ef.(type) {
			case Pause:
				// Off the loop: a processor dying on its way to the barrier
				// is reported while Pause is still gathering the rest.
				go func() {
					if st, err := ses.Pause(e.Checkpoint); err == nil {
						plane.post(Parked{State: st})
					}
				}()
			case Resume:
				if err := ses.Resume(e.Plan); err != nil {
					ses.Abort(err)
				}
			case Finish:
				ses.FinishRun()
			case Probe:
				ses.Probe()
			case Done:
				e.Result.Elapsed = ses.Elapsed()
				e.Result.Trace.Sort()
				e.Result.run.arrived, e.Result.run.vars = ses.run.arrived, ses.run.vars
				return e.Result, nil
			}
		}
	}
}

// localPlane is the RemotePlane of the session that hosts the whole
// machine: nothing is remote, and its reports feed RunContext's loop.
type localPlane struct {
	events chan Event
	quit   chan struct{} // closed when the run returns
}

func (p localPlane) post(ev Event) {
	select {
	case p.events <- ev:
	case <-p.quit:
	}
}

func (p localPlane) DeliverRemote(m RemoteMsg) error {
	return fmt.Errorf("exec: PE %d is not on this machine", m.ToPE)
}
func (p localPlane) FlushRemote()      {}
func (p localPlane) Quiet(q Quiet)     { p.post(q) }
func (p localPlane) LocalCrash(pe int) { p.post(Crash{PE: pe}) }

// checkInputs validates the runner's Inputs against the design's
// external input variables, reporting every missing one at once.
func (r *Runner) checkInputs(flat *graph.Flat) error {
	missing := map[string]bool{}
	for _, vars := range flat.ExternalIn {
		for _, v := range vars {
			if _, ok := r.Inputs[v]; !ok {
				missing[v] = true
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	names := make([]string, 0, len(missing))
	for v := range missing {
		names = append(names, fmt.Sprintf("%q", v))
	}
	sort.Strings(names)
	return fmt.Errorf("exec: missing external input(s) %s: provide them via Runner.Inputs", strings.Join(names, ", "))
}

// errAborted marks a worker failure that is a consequence of another
// worker's abort, not a root cause.
var errAborted = errors.New("aborted")

// taskSeed derives a deterministic rand() seed from the task name so
// runs are reproducible regardless of goroutine interleaving.
func taskSeed(id graph.NodeID) int64 {
	h := fnv.New64a()
	h.Write([]byte(id))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}
