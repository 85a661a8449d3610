package pits

import (
	"math"
	"math/rand"
	"slices"
	"strings"
)

// Interp executes PITS routines. An Interp is single-goroutine and
// reusable: a run resets it, and builds no state (the rand() generator)
// before a routine first needs it, so the parallel runner keeps one per
// processor. Its stacks and registers are kept from run to run; the
// compiled Program it runs is shared and never written.
//
// Besides producing values, the interpreter counts abstract operations
// (the currency of graph.Node.Work and machine.Params.ProcSpeed) so a
// trial run measures how expensive a task is, and it enforces a step
// limit so "instant feedback" trial runs cannot hang on a runaway loop.
type Interp struct {
	// MaxSteps bounds statement executions; <= 0 means the default of
	// ten million.
	MaxSteps int64
	// Seed seeds the rand() builtin at a run's first draw; runs with
	// equal seeds and inputs are bit-identical.
	Seed int64

	steps  int64
	ops    int64
	out    []string
	rng    *rand.Rand
	stack  []Value   // operands, formula arguments among them
	frames []frame   // formula calls in progress
	regs   []float64 // loop counters and bounds
	defs   []int32   // formula name -> the definition in force, or -1
	vars   []Value   // Run's slot array
}

// frame is one formula call: where it returns to, and where its
// arguments start on the stack.
type frame struct{ ret, base int }

// maxFormulaDepth bounds nested formula calls; the checker forbids
// self-reference, but depth is the runtime backstop.
const maxFormulaDepth = 64

// NewInterp returns an interpreter with default limits and seed 1.
func NewInterp() *Interp { return &Interp{Seed: 1} }

const defaultMaxSteps = 10_000_000

// Ops returns the abstract operations counted by the last run.
func (in *Interp) Ops() int64 { return in.ops }

// Output returns the lines printed by the last run.
func (in *Interp) Output() []string { return in.out }

// Vars returns the routine's variables by slot number: the first
// len(p.Vars()) entries of Exec's slot array hold them. The slice is
// the program's own and must not be written.
func (p *Program) Vars() []string { return p.names }

// Run executes the program against env. Input variables are read from
// env; every assignment writes back into env, so after Run (even a
// failed one) the caller reads results directly from env. Counters and
// output are reset at the start of each Run.
func (in *Interp) Run(p *Program, env Env) error {
	in.vars = slices.Grow(in.vars[:0], len(p.names))[:len(p.names)]
	env.Bind(p.names, in.vars)
	err := in.Exec(p, in.vars)
	if env != nil {
		env.Update(p.names, in.vars)
	}
	return err
}

// Exec executes the program over a slot array: vars[i] is the variable
// p.Vars()[i], nil while unset, and entries past the routine's own are
// left alone. Values are read from and written into vars in place.
//
// The instructions that are rare, or that fail with several values in
// their message, run in helpers: that keeps Exec's own stack frame
// small, and a runner's goroutine, which calls it for every task, grows
// its stack at most once.
func (in *Interp) Exec(p *Program, vars []Value) error {
	in.steps, in.ops, in.out, in.rng = 0, 0, nil, nil
	max := in.MaxSteps
	if max <= 0 {
		max = defaultMaxSteps
	}
	in.regs = slices.Grow(in.regs[:0], int(p.nregs))[:p.nregs]
	in.defs = slices.Grow(in.defs[:0], len(p.fnames))[:len(p.fnames)]
	for i := range in.defs {
		in.defs[i] = -1
	}
	st, fr, code := in.stack[:0], in.frames[:0], p.code
	for pc := p.entry; pc < len(code); pc++ {
		c := &code[pc]
		line := int(c.line)
		switch c.op {
		case opStep:
			if in.steps++; in.steps > max {
				return stepErr(line, max)
			}
		case opConst:
			st = append(st, p.consts[c.a])
		case opLoad:
			v := vars[c.a]
			if v == nil {
				if c.b < 0 {
					return rtErr(line, "undefined variable %q", p.names[c.a])
				}
				v = p.consts[c.b]
			}
			st = append(st, v)
		case opArg:
			st = append(st, st[fr[len(fr)-1].base+int(c.a)])
		case opStore:
			// Vectors are stored by copy on plain assignment so two
			// variables never alias.
			in.ops++
			vars[c.a] = Unalias(st[len(st)-1])
			st = st[:len(st)-1]
		case opTick:
			in.ops++
		case opStoreIdx:
			if err := p.storeIdx(c, vars, st[len(st)-2], st[len(st)-1]); err != nil {
				return err
			}
			st = st[:len(st)-2]
		case opJump:
			pc = int(c.a) - 1
		case opBranch, opAnd, opOr, opBool:
			b, ok := st[len(st)-1].(BoolV)
			if !ok {
				return typeErr(line, "condition must be a boolean, got %s", st[len(st)-1])
			}
			switch {
			case c.op == opBool:
				continue
			case c.op == opBranch:
				st = st[:len(st)-1]
				if !b {
					pc = int(c.a) - 1
				}
			case bool(b) == (c.op == opOr):
				pc = int(c.a) - 1 // short circuit: the left operand is the result
			default:
				st = st[:len(st)-1]
			}
			in.ops++
		case opNum:
			if _, ok := st[len(st)-1].(Num); !ok {
				return typeErr(line, "expected a number, got %s", st[len(st)-1])
			}
		case opRepeat, opFor:
			n := len(st) - 3 // from, to and step
			if c.op == opRepeat {
				n = len(st) - 1 // the count
			}
			if err := loopInit(c, in.regs[c.a:c.a+3], st[n:]); err != nil {
				return err
			}
			st = st[:n]
		case opForNext:
			r := in.regs[c.a : c.a+3]
			if i, to, step := r[0], r[1], r[2]; !(step > 0 && i <= to || step < 0 && i >= to) {
				pc = int(c.b) - 1
				continue
			}
			if in.steps++; in.steps > max {
				return stepErr(line, max)
			}
			in.ops++
			if c.c >= 0 {
				vars[c.c] = Num(r[0])
			}
		case opForInc:
			in.regs[c.a] += in.regs[c.a+2]
			pc = int(c.b) - 1
		case opPrint:
			in.print(st[len(st)-int(c.a):])
			st = st[:len(st)-int(c.a)]
		case opDefine:
			in.defs[c.a] = c.b
			in.ops++
		case opFail:
			e := p.fails[c.a]
			return &e
		case opElem:
			if _, ok := st[len(st)-1].(Num); !ok {
				return rtErr(line, "vector element %d must be a number, got %s", c.a, st[len(st)-1].TypeName())
			}
		case opVec:
			n := len(st) - int(c.a)
			v := make(Vec, c.a)
			for i, x := range st[n:] {
				v[i] = float64(x.(Num))
			}
			in.ops += int64(c.a)
			st = append(st[:n], v)
		case opIsVec:
			if _, ok := st[len(st)-1].(Vec); !ok {
				return typeErr(line, "cannot index a %s", st[len(st)-1])
			}
		case opIndex:
			v := st[len(st)-2].(Vec)
			idx, err := toIndex(line, st[len(st)-1])
			if err != nil {
				return err
			}
			if idx < 1 || idx > len(v) {
				return rtErr(line, "index %d out of range 1..%d", idx, len(v))
			}
			in.ops++
			st = append(st[:len(st)-2], Num(v[idx-1]))
		case opPrecall:
			if err := p.precall(c, in.defs[c.a], len(fr)); err != nil {
				return err
			}
		case opCall:
			base := len(st) - int(c.c)
			if d := in.defs[c.a]; d >= 0 {
				in.ops += 2
				fr = append(fr, frame{pc, base})
				pc = int(p.defs[d].entry) - 1
				continue
			}
			v, err := in.builtin(&p.fns[c.b], line, st[base:])
			if err != nil {
				return err
			}
			st = append(st[:base], v)
		case opBuiltin:
			base := len(st) - int(c.b)
			v, err := in.builtin(&p.fns[c.a], line, st[base:])
			if err != nil {
				return err
			}
			st = append(st[:base], v)
		case opReturn:
			f := fr[len(fr)-1]
			fr = fr[:len(fr)-1]
			st = append(st[:f.base], st[len(st)-1])
			pc = f.ret
		case opNeg:
			in.ops++
			switch t := st[len(st)-1].(type) {
			case Num:
				st[len(st)-1] = -t
			case Vec:
				out := make(Vec, len(t))
				for i, f := range t {
					out[i] = -f
				}
				in.ops += int64(len(t))
				st[len(st)-1] = out
			default:
				return typeErr(line, "cannot negate a %s", t)
			}
		case opNot:
			in.ops++
			b, ok := st[len(st)-1].(BoolV)
			if !ok {
				return typeErr(line, "'not' needs a boolean, got %s", st[len(st)-1])
			}
			st[len(st)-1] = !b
		case opBinary:
			v, err := in.binary(TokKind(c.a), line, st[len(st)-2], st[len(st)-1])
			if err != nil {
				return err
			}
			st = append(st[:len(st)-2], v)
		}
	}
	in.stack, in.frames = st[:0], fr
	return nil
}

// builtin calls one builtin on its arguments.
func (in *Interp) builtin(fn *Builtin, line int, args []Value) (Value, error) {
	in.ops += fn.Cost
	if fn.fn == nil { // rand: the one builtin with per-interpreter state
		if in.rng == nil {
			in.rng = rand.New(rand.NewSource(in.Seed))
		}
		return Num(in.rng.Float64()), nil
	}
	return fn.fn(line, args)
}

// storeIdx stores the value val at index iv of vector variable c.a.
func (p *Program) storeIdx(c *instr, vars []Value, val, iv Value) error {
	line := int(c.line)
	idx, err := toIndex(line, iv)
	if err != nil {
		return err
	}
	name, cur := p.names[c.a], vars[c.a]
	if cur == nil {
		return rtErr(line, "undefined vector %q", name)
	}
	v, ok := cur.(Vec)
	if !ok {
		return rtErr(line, "%q is a %s, not a vector", name, cur.TypeName())
	}
	if idx < 1 || idx > len(v) {
		return rtErr(line, "index %d out of range 1..%d for %q", idx, len(v), name)
	}
	x, ok := val.(Num)
	if !ok {
		return typeErr(line, "vector element must be a number, got %s", val)
	}
	v[idx-1] = float64(x)
	return nil
}

// precall makes a call's checks before its arguments: those of formula
// definition d (-1: none in force) at call depth depth, or else the
// failure the compiler found for the builtin.
func (p *Program) precall(c *instr, d int32, depth int) error {
	switch {
	case d < 0 && c.b >= 0:
		e := p.fails[c.b]
		return &e
	case d < 0:
		return nil
	case c.c != p.defs[d].params:
		return rtErr(int(c.line), "formula %s takes %d argument(s), got %d", p.fnames[c.a], p.defs[d].params, c.c)
	case depth >= maxFormulaDepth:
		return rtErr(int(c.line), "formula call depth exceeded (%d); recursive formula?", maxFormulaDepth)
	}
	return nil
}

// loopInit sets a counted loop's registers from the top of the stack:
// from, to and step, or a repeat count.
func loopInit(c *instr, r []float64, top []Value) error {
	if c.op == opRepeat {
		// i < int64(n) for i from 0, as for i = 1 to n.
		n, ok := top[0].(Num)
		if !ok || float64(n) != math.Trunc(float64(n)) || n < 0 {
			return rtErr(int(c.line), "repeat count must be a non-negative integer, got %s", top[0])
		}
		r[0], r[1], r[2] = 1, float64(int64(n)), 1
		return nil
	}
	for i, v := range top {
		r[i] = float64(v.(Num))
	}
	if r[2] == 0 {
		return rtErr(int(c.line), "for step must be non-zero")
	}
	return nil
}

// print prints one line of values, one op.
func (in *Interp) print(args []Value) {
	parts := make([]string, len(args))
	for i, v := range args {
		parts[i] = v.String()
	}
	in.ops++
	in.out = append(in.out, strings.Join(parts, " "))
}

func stepErr(line int, max int64) error {
	return rtErr(line, "step limit exceeded (%d statements); infinite loop?", max)
}

// typeErr reports a value of the wrong type.
func typeErr(line int, format string, v Value) error { return rtErr(line, format, v.TypeName()) }

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

// binary applies a comparison or arithmetic operator, one op.
func (in *Interp) binary(op TokKind, line int, l, r Value) (Value, error) {
	in.ops++
	switch op {
	case TokEq, TokNe:
		eq, err := valuesEqual(line, l, r)
		if err != nil {
			return nil, err
		}
		return BoolV(eq != (op == TokNe)), nil
	case TokLt, TokLe, TokGt, TokGe:
		ln, lok := l.(Num)
		rn, rok := r.(Num)
		if !lok || !rok {
			return nil, rtErr(line, "cannot compare %s with %s", l.TypeName(), r.TypeName())
		}
		switch op {
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
	return in.arith(line, op, l, r)
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
	an, aNum := l.(Num)
	bn, bNum := r.(Num)
	a, aVec := l.(Vec)
	b, bVec := r.(Vec)
	switch {
	case aNum && bNum:
		v, err := apply(float64(an), float64(bn))
		return Num(v), err
	case !aNum && !aVec || !bNum && !bVec:
		return nil, rtErr(line, "cannot apply %s to %s and %s", op, l.TypeName(), r.TypeName())
	case aVec && bVec && len(a) != len(b):
		return nil, rtErr(line, "vector lengths %d and %d differ", len(a), len(b))
	}
	out := make(Vec, max(len(a), len(b)))
	for i := range out {
		x, y := float64(an), float64(bn)
		if aVec {
			x = a[i]
		}
		if bVec {
			y = b[i]
		}
		v, err := apply(x, y)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	in.ops += int64(len(out))
	return out, nil
}
