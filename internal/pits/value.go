package pits

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a PITS runtime value: a scalar number, a vector, a boolean
// or a string (strings exist for print labels).
type Value interface {
	// TypeName is the user-visible type name used in error messages.
	TypeName() string
	String() string
}

// Num is a floating-point scalar, the calculator's native type.
type Num float64

// Vec is a vector of floats with 1-based user-level indexing.
type Vec []float64

// BoolV is a boolean value.
type BoolV bool

// StrV is a string value.
type StrV string

// TypeName implements Value.
func (Num) TypeName() string { return "number" }

// TypeName implements Value.
func (Vec) TypeName() string { return "vector" }

// TypeName implements Value.
func (BoolV) TypeName() string { return "boolean" }

// TypeName implements Value.
func (StrV) TypeName() string { return "string" }

// String formats the number the way a calculator display would:
// integers without a decimal point, others with up to 10 significant
// digits.
func (n Num) String() string {
	f := float64(n)
	if f == float64(int64(f)) && f < 1e15 && f > -1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', 10, 64)
}

// String implements Value.
func (v Vec) String() string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = Num(x).String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// String implements Value.
func (b BoolV) String() string {
	if b {
		return "true"
	}
	return "false"
}

// String implements Value.
func (s StrV) String() string { return string(s) }

// Env is a variable environment. PITS has a single flat scope per
// routine — the calculator's variable windows.
type Env map[string]Value

// Clone returns a shallow copy of the environment (vectors are copied
// so callers can't alias task-local state).
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = Unalias(v)
	}
	return c
}

// Bind sets vars[i] to the variable names[i] of the environment, nil
// where it has none: a slot array for Interp.Exec.
func (e Env) Bind(names []string, vars []Value) {
	for i, name := range names {
		vars[i] = e[name]
	}
}

// Update writes every set variable of a slot array into the
// environment, vars[i] under names[i].
func (e Env) Update(names []string, vars []Value) {
	for i, v := range vars {
		if v != nil {
			e[names[i]] = v
		}
	}
}

// Unalias returns v safe to store under a second name or in a second
// environment: a vector, the one mutable value, is copied.
func Unalias(v Value) Value {
	if vec, ok := v.(Vec); ok {
		return append(Vec(nil), vec...)
	}
	return v
}

// RuntimeError is an execution error with the source line it occurred
// on.
type RuntimeError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *RuntimeError) Error() string {
	return fmt.Sprintf("pits: line %d: %s", e.Line, e.Msg)
}

func rtErr(line int, format string, args ...any) error {
	return &RuntimeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}
