// Package conform is Banger's differential conformance harness: it
// generates random (design, machine, heuristic, fault-plan) tuples,
// runs each through every execution engine the repo has — the analytic
// simulator, the virtual-time in-process runner, a one-run wire.Fleet
// with its worker mesh over the in-process transport, and the same over
// real TCP workers — and checks that they agree wherever
// the machine model says they must:
//
//   - external outputs are byte-identical across all executing engines;
//   - printed lines are identical across all executing engines;
//   - the schedule passes sched.Validate;
//   - fault-free, the virtual-time trace is event-for-event equal to
//     the simulator's, and its makespan equals the schedule's;
//   - the trace is causal: every receive has a matching send, receives
//     never precede their sends, and per-processor slots are monotone;
//   - messages are conserved: sends equal receives exactly for
//     crash-free runs (retransmission heals injected drops, duplicates
//     and corruptions), and sends never undershoot receives after a
//     crash (re-executed eras re-send).
//
// When a case diverges, Shrink reduces it to a local minimum that
// still shows the same divergence class, and WriteRepro emits a
// self-contained directory replayable with `banger conform -repro`.
package conform

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Case is one self-contained conformance scenario. Everything an
// engine needs is derivable from these fields alone, which is what
// makes a written-out case replayable: task work is re-measured from
// the routines (see Calibrate), the schedule is recomputed from the
// named heuristic, and the fault plan replays from its spec string.
type Case struct {
	Seed      int64
	Design    *graph.Graph
	Machine   *machine.Machine
	Heuristic string
	Faults    *exec.FaultPlan
	Inputs    pits.Env

	// SkewComm deliberately skews the virtual-time runner's message
	// startup cost by this amount while every other engine keeps the
	// real machine. Zero in normal operation; a non-zero skew is the
	// harness's own fault injection — it must surface as a
	// trace-vs-sim/makespan divergence, which is how the minimizer and
	// the repro loop are exercised end to end.
	SkewComm machine.Time

	// Churn drives the distributed engines' elastic fleet machinery
	// mid-run: worker joins and graceful drains fired at wall-clock
	// offsets (see ChurnOp). The single-process engines ignore it, so
	// the outputs/printed oracles double as the elasticity oracle: a
	// fleet change must never alter what the run computes.
	Churn []ChurnOp
}

// HasCrash reports whether the case's fault plan kills a processor.
func (c *Case) HasCrash() bool {
	if c.Faults == nil {
		return false
	}
	for _, f := range c.Faults.Faults {
		if f.Kind == exec.FaultCrash {
			return true
		}
	}
	return false
}

// Divergence is one oracle violation. Oracle is a stable class name
// ("outputs", "printed", "trace-vs-sim", "makespan", "causality",
// "conservation", "validate", "error"); the minimizer considers two
// reports equivalent when they share a class.
type Divergence struct {
	Oracle string
	Engine string
	Detail string
}

func (d Divergence) String() string {
	if d.Engine != "" {
		return fmt.Sprintf("[%s] %s: %s", d.Oracle, d.Engine, d.Detail)
	}
	return fmt.Sprintf("[%s] %s", d.Oracle, d.Detail)
}

// EngineRun is one engine's observation of a case.
type EngineRun struct {
	Name     string
	Err      error
	Outputs  pits.Env
	OutBytes []byte // wire.EncodeEnv of Outputs (canonical, comparable)
	Printed  []string
	Trace    *trace.Trace
}

// Report is the outcome of running a case through every engine.
type Report struct {
	Case        *Case
	Schedule    *sched.Schedule
	Engines     []*EngineRun
	Divergences []Divergence
}

// Failed reports whether any oracle fired.
func (r *Report) Failed() bool { return len(r.Divergences) > 0 }

// Engine returns the named engine's run, or nil.
func (r *Report) Engine(name string) *EngineRun {
	for _, e := range r.Engines {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Classes returns the distinct oracle classes that fired.
func (r *Report) Classes() map[string]bool {
	cs := map[string]bool{}
	for _, d := range r.Divergences {
		cs[d.Oracle] = true
	}
	return cs
}

// Calibrate runs every routine once in topological order (a miniature
// rehearsal, mirroring what `banger run -calibrate` does) and sets each
// task's Work to its measured interpreter ops, so the virtual-time
// runner and the machine model agree exactly. Conform designs are
// always calibrated: the makespan and trace oracles require it.
func Calibrate(flat *graph.Flat, inputs pits.Env) error {
	order, err := flat.Graph.TopoSort()
	if err != nil {
		return err
	}
	produced := map[graph.NodeID]pits.Env{}
	for _, id := range order {
		n := flat.Graph.Node(id)
		env := pits.Env{}
		for _, v := range flat.ExternalIn[id] {
			env[v] = inputs[v]
		}
		for _, a := range flat.Graph.PredArcs(id) {
			env[a.Var] = produced[a.From][a.Var]
		}
		prog, err := pits.Parse(n.Routine)
		if err != nil {
			return fmt.Errorf("task %s: %w", id, err)
		}
		ops, out, _, err := pits.Measure(prog, env)
		if err != nil {
			return fmt.Errorf("task %s: %w", id, err)
		}
		produced[id] = out
		n.Work = ops
		if n.Work < 1 {
			n.Work = 1
		}
	}
	return nil
}

// prepare flattens, calibrates and schedules the case.
func (c *Case) prepare() (*graph.Flat, *sched.Schedule, error) {
	flat, err := c.Design.Flatten()
	if err != nil {
		return nil, nil, fmt.Errorf("flatten: %w", err)
	}
	if err := Calibrate(flat, c.Inputs); err != nil {
		return nil, nil, fmt.Errorf("calibrate: %w", err)
	}
	s, err := sched.ByName(c.Heuristic)
	if err != nil {
		return nil, nil, err
	}
	sc, err := s.Schedule(flat.Graph, c.Machine)
	if err != nil {
		return nil, nil, fmt.Errorf("schedule(%s): %w", c.Heuristic, err)
	}
	return flat, sc, nil
}

// runner returns the single-process runner configured for the case.
// Fault plans always run with acknowledged retransmission: drops,
// duplicates and corruptions are only survivable with it on.
func (c *Case) runner(virtual bool) *exec.Runner {
	r := &exec.Runner{Inputs: c.Inputs, VirtualTime: virtual}
	if c.Faults != nil {
		r.Faults = c.Faults
		r.Retry = true
		r.RetryBase = 2 * time.Millisecond
		r.RetryCap = 20 * time.Millisecond
	}
	return r
}

// skewed returns the schedule the virtual-time runner engine should
// execute: the real schedule, or a copy whose machine has the message
// startup skewed by SkewComm. Only the machine differs — the slots and
// messages are shared, so the runner replays the same placement
// decisions under a subtly different cost model. That is exactly the
// class of bug the trace-vs-sim oracle exists to catch.
func (c *Case) skewed(sc *sched.Schedule) (*sched.Schedule, error) {
	if c.SkewComm == 0 {
		return sc, nil
	}
	p := sc.Machine.Params
	p.MsgStartup += c.SkewComm
	m, err := machine.New(sc.Machine.Name+"+skew", sc.Machine.Topo, p)
	if err != nil {
		return nil, err
	}
	return &sched.Schedule{
		Graph: sc.Graph, Machine: m, Algorithm: sc.Algorithm,
		Slots: sc.Slots, Msgs: sc.Msgs,
	}, nil
}

// RunCase executes the case on all four engines and checks every
// oracle. A non-nil error means the harness itself could not set the
// case up (unschedulable design, unknown heuristic); engine failures
// are not errors — they are "error"-class divergences in the report.
// The two distributed engines differ only in transport: "inproc" runs
// a one-run fleet and its worker mesh over the in-process transport,
// "tcp" over real sockets.
func RunCase(ctx context.Context, c *Case) (*Report, error) {
	flat, sc, err := c.prepare()
	if err != nil {
		return nil, err
	}
	rep := &Report{Case: c, Schedule: sc}

	if err := sc.Validate(); err != nil {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "validate", Detail: err.Error()})
	}

	rep.Engines = append(rep.Engines,
		runSimulate(sc),
		runRunner(c, sc, flat),
		runDist(ctx, c, sc, flat, "inproc"),
		runDist(ctx, c, sc, flat, "tcp"),
	)
	check(rep, flat)
	return rep, nil
}

// runSimulate replays the schedule analytically. It produces no data —
// only the predicted trace.
func runSimulate(sc *sched.Schedule) *EngineRun {
	er := &EngineRun{Name: "simulate"}
	tr, err := exec.Simulate(sc)
	if err != nil {
		er.Err = err
		return er
	}
	tr.Sort()
	er.Trace = tr
	return er
}

// runRunner executes the case on the virtual-time in-process runner.
func runRunner(c *Case, sc *sched.Schedule, flat *graph.Flat) *EngineRun {
	er := &EngineRun{Name: "runner"}
	rsc, err := c.skewed(sc)
	if err != nil {
		er.Err = err
		return er
	}
	res, err := c.runner(true).Run(rsc, flat)
	if err != nil {
		er.Err = err
		return er
	}
	fillEngine(er, res)
	return er
}

// runDist executes the case across worker daemons over the transport
// the engine name implies ("tcp" dials real sockets, anything else the
// in-process transport).
func runDist(ctx context.Context, c *Case, sc *sched.Schedule, flat *graph.Flat, name string) *EngineRun {
	er := &EngineRun{Name: name}
	workers := sc.Machine.NumPE()
	if workers > 2 {
		workers = 2
	}
	var tr wire.Transport
	listen := func(i int) string { return fmt.Sprintf("conform-%s-%d-w%d", name, c.Seed, i) }
	if name == "tcp" {
		tr = wire.TCP()
		listen = func(int) string { return "127.0.0.1:0" }
	} else {
		tr = wire.Inproc()
	}
	addrs, stop, err := startWorkers(tr, listen, workers)
	if err != nil {
		er.Err = err
		return er
	}
	defer func() {
		if serr := stop(); serr != nil && er.Err == nil {
			er.Err = fmt.Errorf("worker shutdown: %w", serr)
		}
	}()
	// The engine is a one-run fleet, the same door `banger serve` uses;
	// a churn script needs its control listener.
	f := &wire.Fleet{
		Transport: tr, Seed: addrs,
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    5 * time.Second,
	}
	if len(c.Churn) > 0 {
		f.Control = fmt.Sprintf("conform-%s-%d-ctl", name, c.Seed)
		if name == "tcp" {
			f.Control = "127.0.0.1:0"
		}
	}
	if err := f.Start(); err != nil {
		er.Err = err
		return er
	}
	defer f.Close()
	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if len(c.Churn) > 0 {
		joiner := ""
		if churnNeedsJoin(c.Churn) {
			// The spare worker the join op offers. It idles until (and
			// unless) a run takes it in.
			jaddrs, jstop, err := startWorkers(tr, func(int) string {
				if name == "tcp" {
					return "127.0.0.1:0"
				}
				return fmt.Sprintf("conform-%s-%d-joiner", name, c.Seed)
			}, 1)
			if err != nil {
				er.Err = err
				return er
			}
			defer func() {
				if serr := jstop(); serr != nil && er.Err == nil {
					er.Err = fmt.Errorf("joiner shutdown: %w", serr)
				}
			}()
			joiner = jaddrs[0]
		}
		go applyChurn(rctx, tr, f.Addr(), joiner, c.Churn, addrs)
	}
	res, err := f.Run(rctx, c.runner(false), sc, flat)
	if err != nil {
		er.Err = err
		return er
	}
	fillEngine(er, res)
	return er
}

func fillEngine(er *EngineRun, res *exec.Result) {
	er.Outputs = res.Outputs
	er.Printed = res.Printed
	er.Trace = res.Trace
	er.Trace.Sort()
	b, err := wire.EncodeEnv(res.Outputs)
	if err != nil {
		er.Err = fmt.Errorf("encoding outputs: %w", err)
		return
	}
	er.OutBytes = b
}

// sameBytes is bytes.Equal treating nil and empty as equal.
func sameBytes(a, b []byte) bool { return bytes.Equal(a, b) }
