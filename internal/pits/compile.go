package pits

import (
	"fmt"
	"slices"
)

// A routine is compiled once, when Parse first sees its text, into a
// flat list of instructions over a value stack. Variables are numbered
// slots, numbers and strings are boxed once into a constant pool, and
// each formula body is a block of its own that a call enters on a frame
// and leaves by opReturn. Every check the language makes at run time is
// made by an instruction at the point the statement or expression
// reaches it, and steps and operations are charged there too, so an
// erroneous routine fails with the same message, and every routine
// counts the same operations, whatever the evaluation order inside one
// instruction.

type opcode uint8

const (
	opStep     opcode = iota // charge a statement step
	opConst                  // push consts[a]
	opLoad                   // push variable a; unset: consts[b], or undefined if b < 0
	opArg                    // push the current formula's argument a
	opStore                  // pop into variable a (unaliased), one op
	opTick                   // one op
	opStoreIdx               // pop index and value; store the element of vector a
	opJump                   // go to a
	opBranch                 // pop a condition, one op; false: go to a
	opAnd                    // pop a condition, one op; false: push it and go to a
	opOr                     // pop a condition, one op; true: push it and go to a
	opBool                   // the top must be a boolean
	opNum                    // the top must be a number
	opRepeat                 // pop a repeat count n: registers a..a+2 count 1 to n
	opFor                    // pop from, to and step into registers a..a+2
	opForNext                // next trip, with its step and op, into variable c (if c >= 0); done: go to b
	opForInc                 // advance for registers a; go to b
	opPrint                  // pop a values and print them, one op
	opDefine                 // formula name a now means definition b, one op
	opFail                   // fail with fails[a]
	opElem                   // the top must be a number: vector element a
	opVec                    // pop a numbers into a vector
	opIsVec                  // the top must be a vector (an index base)
	opIndex                  // pop index and vector, push the element
	opBuiltin                // call fns[a] on the top b values
	opPrecall                // before the arguments of a call to formula name a: its checks (or fails[b])
	opCall                   // call formula name a (or builtin fns[b]) on the top c values
	opReturn                 // leave the current formula with the top value
	opNeg                    // negate the top
	opNot                    // not the top
	opBinary                 // apply operator a to the top two values
)

type instr struct {
	op      opcode
	a, b, c int32
	line    int32
}

// formulaDef is one formula statement's compiled body.
type formulaDef struct{ entry, params int32 }

// compiler looks names up in the program's own short lists (p.names,
// p.fnames, p.fns): a routine names a handful of each.
type compiler struct {
	p         *Program
	params    []string // the formula body being compiled, if inFormula
	inFormula bool
	defs      int32 // formula statements compiled so far
}

// compile fills p's code from its statements. It cannot fail: every
// error the routine can meet is an instruction that fails when reached.
func compile(p *Program) {
	c := &compiler{p: p}
	var formulas []*Formula
	for _, s := range p.Stmts {
		if f, ok := s.(*Formula); ok {
			formulas = append(formulas, f)
			if c.form(f.Name) < 0 {
				p.fnames = append(p.fnames, f.Name)
			}
		}
	}
	c.inFormula = true
	for _, f := range formulas {
		p.defs = append(p.defs, formulaDef{int32(len(p.code)), int32(len(f.Params))})
		c.params = f.Params
		c.expr(f.Body)
		c.emit(opReturn, 0, 0, 0, 0)
	}
	c.inFormula = false
	p.entry = len(p.code)
	c.block(p.Stmts)
}

func (c *compiler) emit(op opcode, a, b, cc int32, line int) int {
	c.p.code = append(c.p.code, instr{op, a, b, cc, int32(line)})
	return len(c.p.code) - 1
}

// here is the address of the next instruction.
func (c *compiler) here() int32 { return int32(len(c.p.code)) }

func (c *compiler) constant(v Value) int32 {
	c.p.consts = append(c.p.consts, v)
	return int32(len(c.p.consts) - 1)
}

func (c *compiler) slot(name string) int32 {
	if s := slices.Index(c.p.names, name); s >= 0 {
		return int32(s)
	}
	c.p.names = append(c.p.names, name)
	return int32(len(c.p.names) - 1)
}

// form numbers a formula name, or -1: no formula statement defines it.
func (c *compiler) form(name string) int32 { return int32(slices.Index(c.p.fnames, name)) }

func (c *compiler) fail(line int, format string, args ...any) int32 {
	c.p.fails = append(c.p.fails, RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)})
	return int32(len(c.p.fails) - 1)
}

// loop compiles a counted loop: init (opFor or opRepeat) sets up its
// three registers, and each trip assigns the counter to variable v, if
// v >= 0, before the body.
func (c *compiler) loop(init opcode, v int32, body []Stmt, line int) {
	r := c.p.nregs
	c.p.nregs += 3
	c.emit(init, r, 0, 0, line)
	top := c.emit(opForNext, r, 0, v, line)
	c.block(body)
	c.emit(opForInc, r, int32(top), 0, line)
	c.p.code[top].b = c.here()
}

func (c *compiler) block(stmts []Stmt) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s Stmt) {
	switch st := s.(type) {
	case *Assign:
		c.emit(opStep, 0, 0, 0, st.Line)
		c.expr(st.Value)
		if st.Index == nil {
			c.emit(opStore, c.slot(st.Name), 0, 0, st.Line)
			return
		}
		c.emit(opTick, 0, 0, 0, st.Line)
		c.expr(st.Index)
		c.emit(opStoreIdx, c.slot(st.Name), 0, 0, st.Line)
	case *If:
		c.emit(opStep, 0, 0, 0, st.Line)
		br := c.emit(opBranch, 0, 0, 0, c.expr(st.Cond))
		c.block(st.Then)
		if st.Else != nil {
			j := c.emit(opJump, 0, 0, 0, st.Line)
			c.p.code[br].a = c.here()
			c.block(st.Else)
			br = j
		}
		c.p.code[br].a = c.here()
	case *While:
		top := c.emit(opStep, 0, 0, 0, st.Line)
		br := c.emit(opBranch, 0, 0, 0, c.expr(st.Cond))
		c.block(st.Body)
		c.emit(opJump, int32(top), 0, 0, st.Line)
		c.p.code[br].a = c.here()
	case *Repeat:
		c.emit(opStep, 0, 0, 0, st.Line)
		c.expr(st.Count)
		c.loop(opRepeat, -1, st.Body, st.Line)
	case *For:
		c.emit(opStep, 0, 0, 0, st.Line)
		step := st.Step
		if step == nil {
			step = &Number{Value: 1, Line: st.Line}
		}
		for _, e := range []Expr{st.From, st.To, step} {
			c.emit(opNum, 0, 0, 0, c.expr(e))
		}
		c.loop(opFor, c.slot(st.Var), st.Body, st.Line)
	case *Print:
		c.emit(opStep, 0, 0, 0, st.Line)
		for _, a := range st.Args {
			c.expr(a)
		}
		c.emit(opPrint, int32(len(st.Args)), 0, 0, st.Line)
	case *Formula:
		c.emit(opStep, 0, 0, 0, st.Line)
		if _, isBuiltin := builtins()[st.Name]; isBuiltin {
			c.emit(opFail, c.fail(st.Line, "formula %q shadows a builtin function", st.Name), 0, 0, st.Line)
		} else {
			c.emit(opDefine, c.form(st.Name), c.defs, 0, st.Line)
		}
		c.defs++
	}
}

// expr compiles an expression and returns its line.
func (c *compiler) expr(e Expr) int {
	switch x := e.(type) {
	case *Number:
		c.emit(opConst, c.constant(Num(x.Value)), 0, 0, x.Line)
		return x.Line
	case *Str:
		c.emit(opConst, c.constant(StrV(x.Value)), 0, 0, x.Line)
		return x.Line
	case *Bool:
		c.emit(opConst, c.constant(BoolV(x.Value)), 0, 0, x.Line)
		return x.Line
	case *Var:
		k := int32(-1)
		if v, ok := Constants[x.Name]; ok {
			k = c.constant(Num(v))
		}
		switch {
		case !c.inFormula:
			c.emit(opLoad, c.slot(x.Name), k, 0, x.Line)
		case slices.Contains(c.params, x.Name):
			c.emit(opArg, int32(slices.Index(c.params, x.Name)), 0, 0, x.Line)
		case k >= 0:
			c.emit(opConst, k, 0, 0, x.Line)
		default:
			c.emit(opFail, c.fail(x.Line, "undefined variable %q", x.Name), 0, 0, x.Line)
		}
		return x.Line
	case *VecLit:
		for i, el := range x.Elems {
			c.expr(el)
			c.emit(opElem, int32(i+1), 0, 0, x.Line)
		}
		c.emit(opVec, int32(len(x.Elems)), 0, 0, x.Line)
		return x.Line
	case *Index:
		c.expr(x.Base)
		c.emit(opIsVec, 0, 0, 0, x.Line)
		c.expr(x.Index)
		c.emit(opIndex, 0, 0, 0, x.Line)
		return x.Line
	case *Call:
		c.call(x)
		return x.Line
	case *Unary:
		c.expr(x.X)
		op := opNeg
		if x.Op == TokNot {
			op = opNot
		}
		c.emit(op, 0, 0, 0, x.Line)
		return x.Line
	case *Binary:
		if x.Op != TokAnd && x.Op != TokOr {
			c.expr(x.X)
			c.expr(x.Y)
			c.emit(opBinary, int32(x.Op), 0, 0, x.Line)
			return x.Line
		}
		op := opAnd
		if x.Op == TokOr {
			op = opOr
		}
		j := c.emit(op, 0, 0, 0, c.expr(x.X))
		c.emit(opBool, 0, 0, 0, c.expr(x.Y))
		c.p.code[j].a = c.here()
		return x.Line
	}
	return 0
}

// call compiles a call. A name no formula statement defines is a
// builtin or an error, settled here; a formula name is looked up when
// the call runs, since what it means depends on which formula
// statements have run by then.
func (c *compiler) call(x *Call) {
	n := int32(len(x.Args))
	fail, fn := int32(-1), int32(-1)
	b, isBuiltin := builtins()[x.Fn]
	switch {
	case !isBuiltin:
		fail = c.fail(x.Line, "unknown function %q", x.Fn)
	case b.Arity >= 0 && len(x.Args) != b.Arity:
		fail = c.fail(x.Line, "%s takes %d argument(s), got %d", x.Fn, b.Arity, len(x.Args))
	case b.Arity < 0 && len(x.Args) == 0:
		fail = c.fail(x.Line, "%s needs at least one argument", x.Fn)
	default:
		if fn = int32(slices.IndexFunc(c.p.fns, func(f Builtin) bool { return f.Name == x.Fn })); fn < 0 {
			fn = int32(len(c.p.fns))
			c.p.fns = append(c.p.fns, b)
		}
	}
	form := c.form(x.Fn)
	isForm := form >= 0
	if !isForm && fail >= 0 {
		c.emit(opFail, fail, 0, 0, x.Line)
		return
	}
	if isForm {
		c.emit(opPrecall, form, fail, n, x.Line)
	}
	for _, a := range x.Args {
		c.expr(a)
	}
	if isForm {
		c.emit(opCall, form, fn, n, x.Line)
	} else {
		c.emit(opBuiltin, fn, n, 0, x.Line)
	}
}
