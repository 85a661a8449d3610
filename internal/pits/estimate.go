package pits

import "fmt"

// This file connects PITS routines to the scheduler's work model: a
// task costs what Measure counts, the abstract operations the
// interpreter executes when it runs the routine on trial inputs — the
// paper's trial-run "instant feedback" doubling as a cost probe.

// Measure runs the routine against the given inputs and returns the
// exact operation count of that execution, the resulting environment,
// and any printed output.
func Measure(p *Program, inputs Env) (ops int64, env Env, output []string, err error) {
	in := NewInterp()
	env = inputs.Clone()
	if err := in.Run(p, env); err != nil {
		return 0, nil, nil, err
	}
	return in.Ops(), env, in.Output(), nil
}

// TrialReport is the instant-feedback summary the environment shows
// after a trial run of one task.
type TrialReport struct {
	Ops     int64
	Outputs Env
	Printed []string
}

// String renders the report for the calculator's display window.
func (r *TrialReport) String() string {
	return fmt.Sprintf("trial run: %d ops, %d outputs, %d lines printed", r.Ops, len(r.Outputs), len(r.Printed))
}

// TrialRun runs a routine on trial inputs and packages the feedback.
func TrialRun(src string, inputs Env) (*TrialReport, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ops, env, printed, err := Measure(prog, inputs)
	if err != nil {
		return nil, err
	}
	return &TrialReport{Ops: ops, Outputs: env, Printed: printed}, nil
}
