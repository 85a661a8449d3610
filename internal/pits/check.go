package pits

import (
	"errors"
	"fmt"
	"slices"
)

// Check statically analyses a routine given the set of variables that
// will be defined before it runs (the node's input arcs plus declared
// locals). It reports:
//
//   - uses of variables that can never be defined on any path;
//   - calls to unknown functions or with the wrong argument count;
//   - assignments to constant names (pi, e).
//
// The checker is conservative about control flow: a variable assigned
// in any branch counts as possibly-defined afterwards, so it only
// reports definite errors — the right trade-off for instant feedback.
func Check(p *Program, defined []string) error {
	c := &checker{fns: builtins(), defined: map[string]bool{}}
	for _, d := range defined {
		c.defined[d] = true
	}
	c.block(p.Stmts)
	return errors.Join(c.errs...)
}

// Writes returns the sorted set of variables the routine assigns — its
// candidate outputs.
func Writes(p *Program) []string {
	out := []string{}
	for _, c := range p.code[p.entry:] {
		switch {
		case c.op == opStore || c.op == opStoreIdx:
			out = append(out, p.names[c.a])
		case c.op == opForNext && c.c >= 0:
			out = append(out, p.names[c.c])
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

type checker struct {
	fns      map[string]Builtin
	defined  map[string]bool
	formulas map[string]int // formula name -> arity, in definition order
	errs     []error
}

func (c *checker) errf(line int, format string, args ...any) {
	c.errs = append(c.errs, fmt.Errorf("pits: line %d: %s", line, fmt.Sprintf(format, args...)))
}

func (c *checker) use(name string, line int) {
	if c.defined[name] {
		return
	}
	if _, isConst := Constants[name]; isConst {
		return
	}
	c.errf(line, "variable %q used before it is defined", name)
}

func (c *checker) block(stmts []Stmt) {
	for _, s := range stmts {
		c.stmt(s)
	}
}

func (c *checker) stmt(s Stmt) {
	switch st := s.(type) {
	case *Assign:
		if st.Index != nil {
			c.use(st.Name, st.Line) // indexed assignment reads the vector
			c.expr(st.Index)
		}
		c.expr(st.Value)
		if _, isConst := Constants[st.Name]; isConst {
			c.errf(st.Line, "cannot assign to constant %q", st.Name)
			return
		}
		c.defined[st.Name] = true
	case *If:
		c.expr(st.Cond)
		// Each branch checks with a copy; afterwards, a name defined in
		// either branch is possibly-defined.
		base := c.snapshot()
		c.block(st.Then)
		afterThen := c.snapshot()
		c.restore(base)
		c.block(st.Else)
		for v := range afterThen {
			c.defined[v] = true
		}
	case *While:
		c.expr(st.Cond)
		c.block(st.Body)
	case *Repeat:
		c.expr(st.Count)
		c.block(st.Body)
	case *For:
		c.expr(st.From)
		c.expr(st.To)
		if st.Step != nil {
			c.expr(st.Step)
		}
		c.defined[st.Var] = true
		c.block(st.Body)
	case *Print:
		for _, a := range st.Args {
			c.expr(a)
		}
	case *Formula:
		if _, isBuiltin := c.fns[st.Name]; isBuiltin {
			c.errf(st.Line, "formula %q shadows a builtin function", st.Name)
			return
		}
		if _, isConst := Constants[st.Name]; isConst {
			c.errf(st.Line, "formula %q shadows a constant", st.Name)
			return
		}
		if c.formulas == nil {
			c.formulas = map[string]int{}
		}
		if _, dup := c.formulas[st.Name]; dup {
			c.errf(st.Line, "formula %q redefined", st.Name)
			return
		}
		// The body sees only the parameters, the constants, and
		// formulas defined earlier (no self- or forward references, so
		// no recursion).
		body := &checker{fns: c.fns, formulas: c.formulas, defined: map[string]bool{}}
		for _, p := range st.Params {
			body.defined[p] = true
		}
		body.expr(st.Body)
		c.errs = append(c.errs, body.errs...)
		c.formulas[st.Name] = len(st.Params)
	}
}

func (c *checker) snapshot() map[string]bool {
	s := make(map[string]bool, len(c.defined))
	for k, v := range c.defined {
		s[k] = v
	}
	return s
}

func (c *checker) restore(s map[string]bool) {
	c.defined = make(map[string]bool, len(s))
	for k, v := range s {
		c.defined[k] = v
	}
}

func (c *checker) expr(e Expr) {
	switch x := e.(type) {
	case *Var:
		c.use(x.Name, x.Line)
	case *Index:
		c.expr(x.Base)
		c.expr(x.Index)
	case *VecLit:
		for _, el := range x.Elems {
			c.expr(el)
		}
	case *Call:
		if arity, isFormula := c.formulas[x.Fn]; isFormula {
			if len(x.Args) != arity {
				c.errf(x.Line, "formula %s takes %d argument(s), got %d", x.Fn, arity, len(x.Args))
			}
			for _, a := range x.Args {
				c.expr(a)
			}
			return
		}
		fn, ok := c.fns[x.Fn]
		if !ok {
			c.errf(x.Line, "unknown function %q", x.Fn)
		} else if fn.Arity >= 0 && len(x.Args) != fn.Arity {
			c.errf(x.Line, "%s takes %d argument(s), got %d", x.Fn, fn.Arity, len(x.Args))
		} else if fn.Arity < 0 && len(x.Args) == 0 {
			c.errf(x.Line, "%s needs at least one argument", x.Fn)
		}
		for _, a := range x.Args {
			c.expr(a)
		}
	case *Unary:
		c.expr(x.X)
	case *Binary:
		c.expr(x.X)
		c.expr(x.Y)
	}
}
