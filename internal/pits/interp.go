package pits

import (
	"math"
	"math/rand"
	"strings"
)

// Interp executes PITS routines. An Interp is single-goroutine and
// reusable: Run resets it, and builds no state (the rand() generator,
// the formula table) before a routine first needs it, so the parallel
// runner keeps one per processor.
//
// Besides producing values, the interpreter counts abstract operations
// (the currency of graph.Node.Work and machine.Params.ProcSpeed) so a
// trial run measures how expensive a task is, and it enforces a step
// limit so "instant feedback" trial runs cannot hang on a runaway loop.
type Interp struct {
	// MaxSteps bounds statement executions; <= 0 means the default of
	// ten million.
	MaxSteps int64
	// Seed seeds the rand() builtin at a Run's first draw; runs with
	// equal seeds and inputs are bit-identical.
	Seed int64

	steps    int64
	ops      int64
	out      []string
	rng      *rand.Rand
	fns      map[string]Builtin
	formulas map[string]*Formula
	depth    int // formula call depth, to stop runaway recursion
}

// maxFormulaDepth bounds nested formula calls; the checker forbids
// self-reference, but depth is the runtime backstop.
const maxFormulaDepth = 64

// NewInterp returns an interpreter with default limits and seed 1.
func NewInterp() *Interp { return &Interp{Seed: 1} }

const defaultMaxSteps = 10_000_000

// Ops returns the abstract operations counted by the last Run.
func (in *Interp) Ops() int64 { return in.ops }

// Output returns the lines printed by the last Run.
func (in *Interp) Output() []string { return in.out }

// Run executes the program against env. Input variables are read from
// env; every assignment writes back into env, so after Run the caller
// reads results directly from env. Counters and output are reset at the
// start of each Run.
func (in *Interp) Run(p *Program, env Env) error {
	in.steps, in.ops, in.out = 0, 0, nil
	in.formulas, in.rng, in.depth = nil, nil, 0
	in.fns = builtins()
	if env == nil {
		env = Env{}
	}
	return in.execBlock(p.Stmts, env)
}

func (in *Interp) step(line int) error {
	in.steps++
	max := in.MaxSteps
	if max <= 0 {
		max = defaultMaxSteps
	}
	if in.steps > max {
		return rtErr(line, "step limit exceeded (%d statements); infinite loop?", max)
	}
	return nil
}

func (in *Interp) execBlock(stmts []Stmt, env Env) error {
	for _, s := range stmts {
		if err := in.exec(s, env); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) exec(s Stmt, env Env) error {
	switch st := s.(type) {
	case *Assign:
		if err := in.step(st.Line); err != nil {
			return err
		}
		val, err := in.eval(st.Value, env)
		if err != nil {
			return err
		}
		in.ops++
		if st.Index == nil {
			// Vectors are stored by copy on plain assignment so two
			// variables never alias.
			env[st.Name] = Unalias(val)
			return nil
		}
		iv, err := in.eval(st.Index, env)
		if err != nil {
			return err
		}
		idx, err := toIndex(st.Line, iv)
		if err != nil {
			return err
		}
		cur, ok := env[st.Name]
		if !ok {
			return rtErr(st.Line, "undefined vector %q", st.Name)
		}
		v, ok := cur.(Vec)
		if !ok {
			return rtErr(st.Line, "%q is a %s, not a vector", st.Name, cur.TypeName())
		}
		if idx < 1 || idx > len(v) {
			return rtErr(st.Line, "index %d out of range 1..%d for %q", idx, len(v), st.Name)
		}
		x, ok := val.(Num)
		if !ok {
			return rtErr(st.Line, "vector element must be a number, got %s", val.TypeName())
		}
		v[idx-1] = float64(x)
		return nil

	case *If:
		if err := in.step(st.Line); err != nil {
			return err
		}
		c, err := in.evalBool(st.Cond, env)
		if err != nil {
			return err
		}
		in.ops++
		if c {
			return in.execBlock(st.Then, env)
		}
		return in.execBlock(st.Else, env)

	case *While:
		for {
			if err := in.step(st.Line); err != nil {
				return err
			}
			c, err := in.evalBool(st.Cond, env)
			if err != nil {
				return err
			}
			in.ops++
			if !c {
				return nil
			}
			if err := in.execBlock(st.Body, env); err != nil {
				return err
			}
		}

	case *Repeat:
		if err := in.step(st.Line); err != nil {
			return err
		}
		cv, err := in.eval(st.Count, env)
		if err != nil {
			return err
		}
		n, ok := cv.(Num)
		if !ok || float64(n) != math.Trunc(float64(n)) || n < 0 {
			return rtErr(st.Line, "repeat count must be a non-negative integer, got %s", cv)
		}
		for i := int64(0); i < int64(n); i++ {
			if err := in.step(st.Line); err != nil {
				return err
			}
			in.ops++
			if err := in.execBlock(st.Body, env); err != nil {
				return err
			}
		}
		return nil

	case *For:
		if err := in.step(st.Line); err != nil {
			return err
		}
		from, err := in.evalNum(st.From, env)
		if err != nil {
			return err
		}
		to, err := in.evalNum(st.To, env)
		if err != nil {
			return err
		}
		step := 1.0
		if st.Step != nil {
			step, err = in.evalNum(st.Step, env)
			if err != nil {
				return err
			}
		}
		if step == 0 {
			return rtErr(st.Line, "for step must be non-zero")
		}
		for i := from; (step > 0 && i <= to) || (step < 0 && i >= to); i += step {
			if err := in.step(st.Line); err != nil {
				return err
			}
			in.ops++
			env[st.Var] = Num(i)
			if err := in.execBlock(st.Body, env); err != nil {
				return err
			}
		}
		return nil

	case *Print:
		if err := in.step(st.Line); err != nil {
			return err
		}
		var parts []string
		for _, a := range st.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return err
			}
			parts = append(parts, v.String())
		}
		in.ops++
		in.out = append(in.out, strings.Join(parts, " "))
		return nil

	case *Formula:
		if err := in.step(st.Line); err != nil {
			return err
		}
		if _, isBuiltin := in.fns[st.Name]; isBuiltin {
			return rtErr(st.Line, "formula %q shadows a builtin function", st.Name)
		}
		if in.formulas == nil {
			in.formulas = map[string]*Formula{}
		}
		in.formulas[st.Name] = st
		in.ops++
		return nil
	}
	return rtErr(0, "unknown statement %T", s)
}

func toIndex(line int, v Value) (int, error) {
	n, ok := v.(Num)
	if !ok {
		return 0, rtErr(line, "index must be a number, got %s", v.TypeName())
	}
	f := float64(n)
	if f != math.Trunc(f) {
		return 0, rtErr(line, "index must be an integer, got %v", n)
	}
	return int(f), nil
}

func (in *Interp) evalBool(e Expr, env Env) (bool, error) {
	v, err := in.eval(e, env)
	if err != nil {
		return false, err
	}
	b, ok := v.(BoolV)
	if !ok {
		return false, rtErr(exprLine(e), "condition must be a boolean, got %s", v.TypeName())
	}
	return bool(b), nil
}

func (in *Interp) evalNum(e Expr, env Env) (float64, error) {
	v, err := in.eval(e, env)
	if err != nil {
		return 0, err
	}
	n, ok := v.(Num)
	if !ok {
		return 0, rtErr(exprLine(e), "expected a number, got %s", v.TypeName())
	}
	return float64(n), nil
}

func exprLine(e Expr) int {
	switch x := e.(type) {
	case *Number:
		return x.Line
	case *Str:
		return x.Line
	case *Bool:
		return x.Line
	case *Var:
		return x.Line
	case *Index:
		return x.Line
	case *VecLit:
		return x.Line
	case *Call:
		return x.Line
	case *Unary:
		return x.Line
	case *Binary:
		return x.Line
	}
	return 0
}

func (in *Interp) eval(e Expr, env Env) (Value, error) {
	switch x := e.(type) {
	case *Number:
		return Num(x.Value), nil
	case *Str:
		return StrV(x.Value), nil
	case *Bool:
		return BoolV(x.Value), nil
	case *Var:
		if v, ok := env[x.Name]; ok {
			return v, nil
		}
		if c, ok := Constants[x.Name]; ok {
			return Num(c), nil
		}
		return nil, rtErr(x.Line, "undefined variable %q", x.Name)
	case *VecLit:
		v := make(Vec, len(x.Elems))
		for i, el := range x.Elems {
			ev, err := in.eval(el, env)
			if err != nil {
				return nil, err
			}
			n, ok := ev.(Num)
			if !ok {
				return nil, rtErr(x.Line, "vector element %d must be a number, got %s", i+1, ev.TypeName())
			}
			v[i] = float64(n)
		}
		in.ops += int64(len(v))
		return v, nil
	case *Index:
		base, err := in.eval(x.Base, env)
		if err != nil {
			return nil, err
		}
		v, ok := base.(Vec)
		if !ok {
			return nil, rtErr(x.Line, "cannot index a %s", base.TypeName())
		}
		iv, err := in.eval(x.Index, env)
		if err != nil {
			return nil, err
		}
		idx, err := toIndex(x.Line, iv)
		if err != nil {
			return nil, err
		}
		if idx < 1 || idx > len(v) {
			return nil, rtErr(x.Line, "index %d out of range 1..%d", idx, len(v))
		}
		in.ops++
		return Num(v[idx-1]), nil
	case *Call:
		if f, isFormula := in.formulas[x.Fn]; isFormula {
			return in.callFormula(x, f, env)
		}
		fn, ok := in.fns[x.Fn]
		if !ok {
			return nil, rtErr(x.Line, "unknown function %q", x.Fn)
		}
		if fn.Arity >= 0 && len(x.Args) != fn.Arity {
			return nil, rtErr(x.Line, "%s takes %d argument(s), got %d", x.Fn, fn.Arity, len(x.Args))
		}
		if fn.Arity < 0 && len(x.Args) == 0 {
			return nil, rtErr(x.Line, "%s needs at least one argument", x.Fn)
		}
		args := make([]Value, len(x.Args))
		for i, a := range x.Args {
			v, err := in.eval(a, env)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		in.ops += fn.Cost
		if fn.fn == nil { // rand: the one builtin with per-interpreter state
			if in.rng == nil {
				in.rng = rand.New(rand.NewSource(in.Seed))
			}
			return Num(in.rng.Float64()), nil
		}
		return fn.fn(x.Line, args)
	case *Unary:
		v, err := in.eval(x.X, env)
		if err != nil {
			return nil, err
		}
		in.ops++
		switch x.Op {
		case TokMinus:
			switch t := v.(type) {
			case Num:
				return -t, nil
			case Vec:
				out := make(Vec, len(t))
				for i, f := range t {
					out[i] = -f
				}
				in.ops += int64(len(t))
				return out, nil
			}
			return nil, rtErr(x.Line, "cannot negate a %s", v.TypeName())
		case TokNot:
			b, ok := v.(BoolV)
			if !ok {
				return nil, rtErr(x.Line, "'not' needs a boolean, got %s", v.TypeName())
			}
			return !b, nil
		}
		return nil, rtErr(x.Line, "unknown unary operator")
	case *Binary:
		return in.evalBinary(x, env)
	}
	return nil, rtErr(exprLine(e), "unknown expression %T", e)
}

// callFormula evaluates a user formula: arguments are evaluated in the
// caller's environment, then the body sees only parameters and
// constants (formulas are pure).
func (in *Interp) callFormula(x *Call, f *Formula, env Env) (Value, error) {
	if len(x.Args) != len(f.Params) {
		return nil, rtErr(x.Line, "formula %s takes %d argument(s), got %d", f.Name, len(f.Params), len(x.Args))
	}
	if in.depth >= maxFormulaDepth {
		return nil, rtErr(x.Line, "formula call depth exceeded (%d); recursive formula?", maxFormulaDepth)
	}
	scope := make(Env, len(f.Params))
	for i, a := range x.Args {
		v, err := in.eval(a, env)
		if err != nil {
			return nil, err
		}
		scope[f.Params[i]] = v
	}
	in.ops += 2
	in.depth++
	v, err := in.eval(f.Body, scope)
	in.depth--
	return v, err
}

func (in *Interp) evalBinary(x *Binary, env Env) (Value, error) {
	// and/or short-circuit.
	if x.Op == TokAnd || x.Op == TokOr {
		l, err := in.evalBool(x.X, env)
		if err != nil {
			return nil, err
		}
		in.ops++
		if x.Op == TokAnd && !l {
			return BoolV(false), nil
		}
		if x.Op == TokOr && l {
			return BoolV(true), nil
		}
		r, err := in.evalBool(x.Y, env)
		if err != nil {
			return nil, err
		}
		return BoolV(r), nil
	}
	l, err := in.eval(x.X, env)
	if err != nil {
		return nil, err
	}
	r, err := in.eval(x.Y, env)
	if err != nil {
		return nil, err
	}
	in.ops++
	switch x.Op {
	case TokEq, TokNe:
		eq, err := valuesEqual(x.Line, l, r)
		if err != nil {
			return nil, err
		}
		if x.Op == TokNe {
			eq = !eq
		}
		return BoolV(eq), nil
	case TokLt, TokLe, TokGt, TokGe:
		ln, lok := l.(Num)
		rn, rok := r.(Num)
		if !lok || !rok {
			return nil, rtErr(x.Line, "cannot compare %s with %s", l.TypeName(), r.TypeName())
		}
		switch x.Op {
		case TokLt:
			return BoolV(ln < rn), nil
		case TokLe:
			return BoolV(ln <= rn), nil
		case TokGt:
			return BoolV(ln > rn), nil
		default:
			return BoolV(ln >= rn), nil
		}
	}
	return in.arith(x.Line, x.Op, l, r)
}

func valuesEqual(line int, l, r Value) (bool, error) {
	switch a := l.(type) {
	case Num:
		if b, ok := r.(Num); ok {
			return a == b, nil
		}
	case BoolV:
		if b, ok := r.(BoolV); ok {
			return a == b, nil
		}
	case StrV:
		if b, ok := r.(StrV); ok {
			return a == b, nil
		}
	case Vec:
		if b, ok := r.(Vec); ok {
			if len(a) != len(b) {
				return false, nil
			}
			for i := range a {
				if a[i] != b[i] {
					return false, nil
				}
			}
			return true, nil
		}
	}
	return false, rtErr(line, "cannot compare %s with %s", l.TypeName(), r.TypeName())
}

// arith applies +,-,*,/,%,^ with scalar/vector broadcasting.
func (in *Interp) arith(line int, op TokKind, l, r Value) (Value, error) {
	apply := func(a, b float64) (float64, error) {
		switch op {
		case TokPlus:
			return a + b, nil
		case TokMinus:
			return a - b, nil
		case TokStar:
			return a * b, nil
		case TokSlash:
			if b == 0 {
				return 0, rtErr(line, "division by zero")
			}
			return a / b, nil
		case TokPercent:
			if b == 0 {
				return 0, rtErr(line, "modulo by zero")
			}
			return math.Mod(a, b), nil
		case TokCaret:
			v := math.Pow(a, b)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, rtErr(line, "%v ^ %v is not a finite number", Num(a), Num(b))
			}
			return v, nil
		}
		return 0, rtErr(line, "unknown operator")
	}
	switch a := l.(type) {
	case Num:
		switch b := r.(type) {
		case Num:
			v, err := apply(float64(a), float64(b))
			if err != nil {
				return nil, err
			}
			return Num(v), nil
		case Vec:
			out := make(Vec, len(b))
			for i, x := range b {
				v, err := apply(float64(a), x)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			in.ops += int64(len(b))
			return out, nil
		}
	case Vec:
		switch b := r.(type) {
		case Num:
			out := make(Vec, len(a))
			for i, x := range a {
				v, err := apply(x, float64(b))
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			in.ops += int64(len(a))
			return out, nil
		case Vec:
			if len(a) != len(b) {
				return nil, rtErr(line, "vector lengths %d and %d differ", len(a), len(b))
			}
			out := make(Vec, len(a))
			for i := range a {
				v, err := apply(a[i], b[i])
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			in.ops += int64(len(a))
			return out, nil
		}
	}
	return nil, rtErr(line, "cannot apply %s to %s and %s", op, l.TypeName(), r.TypeName())
}
