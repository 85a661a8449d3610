// Package core is the Banger environment itself: the integration layer
// that walks a user through the paper's four steps — draw a
// hierarchical dataflow graph, define a target machine, fill in
// sequential tasks through the calculator metaphor, then schedule,
// predict, trial-run, execute and generate code — with instant
// feedback at every step.
package core

import (
	"fmt"
	"sort"

	"repro/internal/calc"
	"repro/internal/codegen"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Environment is an opened Banger project, flattened and ready to
// schedule and run.
type Environment struct {
	Project *project.Project
	Flat    *graph.Flat
}

// Open validates the project and flattens its design.
func Open(p *project.Project) (*Environment, error) {
	flat, err := p.Flatten()
	if err != nil {
		return nil, err
	}
	return &Environment{Project: p, Flat: flat}, nil
}

// OpenBuiltin opens one of the built-in sample projects by name.
func OpenBuiltin(name string) (*Environment, error) {
	p, err := project.Builtin(name)
	if err != nil {
		return nil, err
	}
	return Open(p)
}

// Schedule maps the design onto the project's machine with the named
// heuristic and validates the result before returning it.
func (e *Environment) Schedule(algorithm string) (*sched.Schedule, error) {
	return e.ScheduleOn(algorithm, e.Project.Machine)
}

// ScheduleOn is Schedule against an explicit machine (used by speedup
// sweeps across machine sizes).
func (e *Environment) ScheduleOn(algorithm string, m *machine.Machine) (*sched.Schedule, error) {
	s, err := sched.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	sc, err := s.Schedule(e.Flat.Graph, m)
	if err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("core: %s produced an invalid schedule: %w", algorithm, err)
	}
	return sc, nil
}

// SpeedupCurve predicts speedup for the design on hypercubes of the
// given dimensions (the paper's Figure 3 right-hand chart uses 1, 2
// and 3 — i.e. 2, 4 and 8 processors).
func (e *Environment) SpeedupCurve(algorithm string, dims []int) ([]sched.SpeedupPoint, error) {
	s, err := sched.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	var machines []*machine.Machine
	for _, d := range dims {
		topo, err := machine.Hypercube(d)
		if err != nil {
			return nil, err
		}
		m, err := e.Project.Machine.Scale(topo)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return sched.SpeedupCurve(s, e.Flat.Graph, machines)
}

// Predict runs the discrete-event simulator over a schedule, returning
// the predicted execution trace.
func (e *Environment) Predict(sc *sched.Schedule) (*trace.Trace, error) {
	return exec.Simulate(sc)
}

// Run executes the schedule for real on goroutines with the project's
// input data; the trace carries wall-clock times.
func (e *Environment) Run(sc *sched.Schedule) (*exec.Result, error) {
	r := &exec.Runner{Inputs: e.Project.Inputs}
	return r.Run(sc, e.Flat)
}

// RunVirtual executes the schedule for real on goroutines but stamps
// the trace in deterministic virtual time derived from the machine
// model and the measured interpreter work — directly comparable with
// the schedule's own Gantt chart.
func (e *Environment) RunVirtual(sc *sched.Schedule) (*exec.Result, error) {
	r := &exec.Runner{Inputs: e.Project.Inputs, VirtualTime: true}
	return r.Run(sc, e.Flat)
}

// RunWith executes the schedule with a caller-configured runner (fault
// injection and retry settings). The project's input
// data is bound automatically unless the runner already carries inputs.
func (e *Environment) RunWith(sc *sched.Schedule, r *exec.Runner) (*exec.Result, error) {
	if r.Inputs == nil {
		r.Inputs = e.Project.Inputs
	}
	return r.Run(sc, e.Flat)
}

// GenerateCode emits a standalone Go program for the schedule.
func (e *Environment) GenerateCode(sc *sched.Schedule) (string, error) {
	return codegen.Generate(sc, e.Flat, e.Project.Inputs)
}

// TaskRehearsal is one task's result from a sequential rehearsal.
type TaskRehearsal struct {
	Task    graph.NodeID
	Ops     int64
	Printed []string
}

// Rehearsal is the outcome of running the whole design sequentially in
// dataflow order — the paper's "trial runs of ... entire programs"
// without any machine model.
type Rehearsal struct {
	Tasks   []TaskRehearsal
	Outputs pits.Env
	// TotalOps is the measured serial work of the design.
	TotalOps int64
}

// Rehearse interprets every task once, in topological order, threading
// real values along the arcs. It returns per-task measured operation
// counts and the design's external outputs.
func (e *Environment) Rehearse() (*Rehearsal, error) {
	order, err := e.Flat.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	produced := map[graph.NodeID]pits.Env{}
	reh := &Rehearsal{Outputs: pits.Env{}}
	for _, id := range order {
		n := e.Flat.Graph.Node(id)
		env := pits.Env{}
		for _, v := range e.Flat.ExternalIn[id] {
			val, ok := e.Project.Inputs[v]
			if !ok {
				return nil, fmt.Errorf("core: task %s: missing external input %q", id, v)
			}
			env[v] = val
		}
		for _, a := range e.Flat.Graph.Pred(id) {
			val, ok := produced[a.From][a.Var]
			if !ok {
				return nil, fmt.Errorf("core: task %s: producer %s did not define %q", id, a.From, a.Var)
			}
			env[a.Var] = val
		}
		prog, err := pits.Parse(n.Routine)
		if err != nil {
			return nil, fmt.Errorf("core: task %s: %w", id, err)
		}
		ops, out, printed, err := pits.Measure(prog, env)
		if err != nil {
			return nil, fmt.Errorf("core: task %s: %w", id, err)
		}
		produced[id] = out
		reh.Tasks = append(reh.Tasks, TaskRehearsal{Task: id, Ops: ops, Printed: printed})
		reh.TotalOps += ops
		for _, v := range e.Flat.ExternalOut[id] {
			val, ok := out[v]
			if !ok {
				return nil, fmt.Errorf("core: task %s: routine did not produce %q", id, v)
			}
			reh.Outputs[v] = val
		}
	}
	return reh, nil
}

// CalibrateWork replaces every task's abstract Work estimate with the
// operation count measured by a rehearsal, closing the loop between
// "instant feedback" trial runs and scheduling quality. Tasks that
// measure zero ops keep a minimum work of 1.
func (e *Environment) CalibrateWork() (*Rehearsal, error) {
	reh, err := e.Rehearse()
	if err != nil {
		return nil, err
	}
	for _, tr := range reh.Tasks {
		n := e.Flat.Graph.Node(tr.Task)
		n.Work = tr.Ops
		if n.Work < 1 {
			n.Work = 1
		}
	}
	return reh, nil
}

// CalculatorFor opens a calculator panel for the named task of the
// flattened design, preloaded with its routine, its input variables
// (bound to rehearsal values when available) and its output variables —
// exactly the panel of Figure 4.
func (e *Environment) CalculatorFor(id graph.NodeID) (*calc.Panel, error) {
	n := e.Flat.Graph.Node(id)
	if n == nil {
		return nil, fmt.Errorf("core: no task %q in flattened design (have %v)", id, taskIDs(e.Flat.Graph))
	}
	panel := calc.NewPanel(string(id))
	// Inputs: external bindings get project values; arc inputs get
	// values by rehearsing the upstream tasks when possible.
	var upstream pits.Env
	if reh, err := e.rehearseUpTo(id); err == nil {
		upstream = reh
	}
	for _, v := range e.Flat.ExternalIn[id] {
		panel.DeclareInput(v, e.Project.Inputs[v])
	}
	for _, a := range e.Flat.Graph.Pred(id) {
		panel.DeclareInput(a.Var, upstream[a.Var])
	}
	outs := map[string]bool{}
	for _, a := range e.Flat.Graph.Succ(id) {
		if !outs[a.Var] {
			outs[a.Var] = true
			panel.DeclareOutput(a.Var)
		}
	}
	for _, v := range e.Flat.ExternalOut[id] {
		if !outs[v] {
			outs[v] = true
			panel.DeclareOutput(v)
		}
	}
	panel.LoadProgram(n.Routine)
	return panel, nil
}

// rehearseUpTo runs the ancestors of id sequentially and returns the
// values arriving on id's input arcs.
func (e *Environment) rehearseUpTo(id graph.NodeID) (pits.Env, error) {
	order, err := e.Flat.Graph.TopoSort()
	if err != nil {
		return nil, err
	}
	need := map[graph.NodeID]bool{}
	for _, a := range e.Flat.Graph.Ancestors(id) {
		need[a] = true
	}
	produced := map[graph.NodeID]pits.Env{}
	for _, tid := range order {
		if !need[tid] {
			continue
		}
		env := pits.Env{}
		for _, v := range e.Flat.ExternalIn[tid] {
			env[v] = e.Project.Inputs[v]
		}
		for _, a := range e.Flat.Graph.Pred(tid) {
			env[a.Var] = produced[a.From][a.Var]
		}
		prog, err := pits.Parse(e.Flat.Graph.Node(tid).Routine)
		if err != nil {
			return nil, err
		}
		_, out, _, err := pits.Measure(prog, env)
		if err != nil {
			return nil, err
		}
		produced[tid] = out
	}
	in := pits.Env{}
	for _, a := range e.Flat.Graph.Pred(id) {
		if v, ok := produced[a.From][a.Var]; ok {
			in[a.Var] = v
		}
	}
	return in, nil
}

func taskIDs(g *graph.Graph) []string {
	var ids []string
	for _, n := range g.Tasks() {
		ids = append(ids, string(n.ID))
	}
	sort.Strings(ids)
	return ids
}
