package pits

import "fmt"

// This file connects PITS routines to the scheduler's work model.
// Banger offers two ways to find out how expensive a task is:
//
//   - Measure: run the routine on trial inputs and count the abstract
//     operations the interpreter executes — the paper's trial-run
//     "instant feedback" doubling as a cost probe;
//   - Estimate: a static walk of the AST that assumes a fixed trip
//     count for loops whose bounds are not literal.

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

// DefaultLoopGuess is the trip count Estimate assumes for loops whose
// bounds are not numeric literals.
const DefaultLoopGuess = 16

// Estimate statically estimates the operation count of one execution
// of the routine. Loops with literal bounds multiply exactly; other
// loops assume loopGuess iterations (DefaultLoopGuess if <= 0).
// Branches cost the more expensive side (a safe scheduling estimate).
func Estimate(p *Program, loopGuess int64) int64 {
	if loopGuess <= 0 {
		loopGuess = DefaultLoopGuess
	}
	e := &estimator{guess: loopGuess, fns: builtins()}
	return e.block(p.Stmts)
}

type estimator struct {
	guess    int64
	fns      map[string]Builtin
	formulas map[string]*Formula
}

func (e *estimator) block(stmts []Stmt) int64 {
	var total int64
	for _, s := range stmts {
		total += e.stmt(s)
	}
	return total
}

func (e *estimator) stmt(s Stmt) int64 {
	switch st := s.(type) {
	case *Assign:
		cost := e.expr(st.Value) + 1
		if st.Index != nil {
			cost += e.expr(st.Index) + 1
		}
		return cost
	case *If:
		thenCost := e.block(st.Then)
		elseCost := e.block(st.Else)
		if elseCost > thenCost {
			thenCost = elseCost
		}
		return e.expr(st.Cond) + 1 + thenCost
	case *While:
		// Condition evaluated once more than the body runs.
		per := e.expr(st.Cond) + 1 + e.block(st.Body)
		return per*e.guess + e.expr(st.Cond) + 1
	case *Repeat:
		n := e.tripCount(st.Count)
		return e.expr(st.Count) + n*(e.block(st.Body)+1)
	case *For:
		n := e.forTrips(st)
		cost := e.expr(st.From) + e.expr(st.To)
		if st.Step != nil {
			cost += e.expr(st.Step)
		}
		return cost + n*(e.block(st.Body)+2)
	case *Print:
		var cost int64 = 1
		for _, a := range st.Args {
			cost += e.expr(a)
		}
		return cost
	case *Formula:
		if e.formulas == nil {
			e.formulas = map[string]*Formula{}
		}
		e.formulas[st.Name] = st
		return 1
	}
	return 1
}

// tripCount resolves a literal loop bound, else the guess.
func (e *estimator) tripCount(expr Expr) int64 {
	if n, ok := expr.(*Number); ok && n.Value >= 0 {
		return int64(n.Value)
	}
	return e.guess
}

func (e *estimator) forTrips(st *For) int64 {
	from, okF := st.From.(*Number)
	to, okT := st.To.(*Number)
	step := 1.0
	okS := true
	if st.Step != nil {
		if s, ok := st.Step.(*Number); ok {
			step = s.Value
		} else {
			okS = false
		}
	}
	if okF && okT && okS && step != 0 {
		n := int64((to.Value-from.Value)/step) + 1
		if n < 0 {
			return 0
		}
		return n
	}
	return e.guess
}

func (e *estimator) expr(x Expr) int64 {
	switch v := x.(type) {
	case *Number, *Str, *Bool, *Var:
		return 0
	case *Index:
		return e.expr(v.Base) + e.expr(v.Index) + 1
	case *VecLit:
		var c int64 = int64(len(v.Elems))
		for _, el := range v.Elems {
			c += e.expr(el)
		}
		return c
	case *Call:
		var c int64 = 1
		if f, isFormula := e.formulas[v.Fn]; isFormula {
			c = 2 + e.expr(f.Body)
		} else if fn, ok := e.fns[v.Fn]; ok && fn.fn != nil {
			// rand (no fn) is priced as an unknown call, as it was when
			// only interpreters knew it: task work estimates, and with
			// them every schedule, depend on this.
			c = fn.Cost
		}
		for _, a := range v.Args {
			c += e.expr(a)
		}
		return c
	case *Unary:
		return e.expr(v.X) + 1
	case *Binary:
		return e.expr(v.X) + e.expr(v.Y) + 1
	}
	return 1
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
