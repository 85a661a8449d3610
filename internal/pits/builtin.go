package pits

import (
	"math"
	"sort"
	"sync"
)

// Builtin is one entry of the calculator's scientific function panel.
type Builtin struct {
	Name string
	// Arity is the required argument count; -1 means variadic (>= 1).
	Arity int
	// Cost is the abstract operation count the interpreter charges per
	// call, and so what a call adds to a task's measured work.
	Cost int64
	// Help is the one-line description shown on the calculator panel.
	Help string
	// fn is nil for rand alone: its stream belongs to the calling
	// interpreter, which draws the number itself.
	fn func(line int, args []Value) (Value, error)
}

// num extracts a scalar argument.
func num(line int, fn string, i int, v Value) (float64, error) {
	n, ok := v.(Num)
	if !ok {
		return 0, rtErr(line, "%s: argument %d must be a number, got %s", fn, i+1, v.TypeName())
	}
	return float64(n), nil
}

// vec extracts a vector argument.
func vec(line int, fn string, i int, v Value) (Vec, error) {
	w, ok := v.(Vec)
	if !ok {
		return nil, rtErr(line, "%s: argument %d must be a vector, got %s", fn, i+1, v.TypeName())
	}
	return w, nil
}

// unary wraps a float->float math function with domain checking.
func unary(name string, cost int64, help string, f func(float64) float64) Builtin {
	return Builtin{Name: name, Arity: 1, Cost: cost, Help: help,
		fn: func(line int, args []Value) (Value, error) {
			x, err := num(line, name, 0, args[0])
			if err != nil {
				return nil, err
			}
			r := f(x)
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return nil, rtErr(line, "%s(%v) is not a finite number", name, Num(x))
			}
			return Num(r), nil
		}}
}

// binary wraps a function of two numbers.
func binary(name string, cost int64, help string, f func(line int, x, y float64) (Value, error)) Builtin {
	return Builtin{Name: name, Arity: 2, Cost: cost, Help: help,
		fn: func(line int, args []Value) (Value, error) {
			x, err := num(line, name, 0, args[0])
			if err != nil {
				return nil, err
			}
			y, err := num(line, name, 1, args[1])
			if err != nil {
				return nil, err
			}
			return f(line, x, y)
		}}
}

// onVec wraps a function of one vector.
func onVec(name string, cost int64, help string, f func(line int, v Vec) (Value, error)) Builtin {
	return Builtin{Name: name, Arity: 1, Cost: cost, Help: help,
		fn: func(line int, args []Value) (Value, error) {
			v, err := vec(line, name, 0, args[0])
			if err != nil {
				return nil, err
			}
			return f(line, v)
		}}
}

// filled is the builtin making a vector of n copies of x.
func filled(name, help string, x float64) Builtin {
	return Builtin{Name: name, Arity: 1, Cost: 2, Help: help,
		fn: func(line int, args []Value) (Value, error) {
			n, err := num(line, name, 0, args[0])
			if err != nil {
				return nil, err
			}
			if n < 0 || n != math.Trunc(n) || n > 1e7 {
				return nil, rtErr(line, "%s: bad size %v", name, Num(n))
			}
			v := make(Vec, int(n))
			for i := range v {
				v[i] = x
			}
			return v, nil
		}}
}

func sum(v Vec) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// builtins is the calculator's function table, built once per process
// and shared read-only by the checker and every Interp:
// nothing may write to the returned map. Every entry is stateless
// except rand, which is listed (so the checker knows its arity and a
// formula cannot shadow it) but carries no fn.
var builtins = sync.OnceValue(buildBuiltins)

func buildBuiltins() map[string]Builtin {
	tbl := map[string]Builtin{}
	add := func(b Builtin) { tbl[b.Name] = b }

	add(unary("sqrt", 4, "square root", math.Sqrt))
	add(unary("abs", 1, "absolute value", math.Abs))
	add(unary("sin", 8, "sine (radians)", math.Sin))
	add(unary("cos", 8, "cosine (radians)", math.Cos))
	add(unary("tan", 8, "tangent (radians)", math.Tan))
	add(unary("asin", 10, "arcsine", math.Asin))
	add(unary("acos", 10, "arccosine", math.Acos))
	add(unary("atan", 10, "arctangent", math.Atan))
	add(unary("exp", 8, "e^x", math.Exp))
	add(unary("ln", 8, "natural log", math.Log))
	add(unary("log10", 8, "base-10 log", math.Log10))
	add(unary("floor", 1, "round down", math.Floor))
	add(unary("ceil", 1, "round up", math.Ceil))
	add(unary("round", 1, "round to nearest", math.Round))

	add(binary("atan2", 10, "atan2(y, x)", func(line int, y, x float64) (Value, error) {
		return Num(math.Atan2(y, x)), nil
	}))
	add(binary("pow", 6, "x raised to y", func(line int, x, y float64) (Value, error) {
		r := math.Pow(x, y)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, rtErr(line, "pow(%v, %v) is not a finite number", Num(x), Num(y))
		}
		return Num(r), nil
	}))
	add(binary("mod", 2, "floating remainder", func(line int, x, y float64) (Value, error) {
		if y == 0 {
			return nil, rtErr(line, "mod by zero")
		}
		return Num(math.Mod(x, y)), nil
	}))

	minmax := func(name string, better func(a, b float64) bool) Builtin {
		return Builtin{Name: name, Arity: -1, Cost: 2, Help: name + " of numbers or one vector",
			fn: func(line int, args []Value) (Value, error) {
				var xs []float64
				if len(args) == 1 {
					if v, ok := args[0].(Vec); ok {
						if len(v) == 0 {
							return nil, rtErr(line, "%s of empty vector", name)
						}
						xs = v
					}
				}
				if xs == nil {
					for i, a := range args {
						x, err := num(line, name, i, a)
						if err != nil {
							return nil, err
						}
						xs = append(xs, x)
					}
				}
				best := xs[0]
				for _, x := range xs[1:] {
					if better(x, best) {
						best = x
					}
				}
				return Num(best), nil
			}}
	}
	add(minmax("min", func(a, b float64) bool { return a < b }))
	add(minmax("max", func(a, b float64) bool { return a > b }))

	add(onVec("len", 1, "vector length", func(line int, v Vec) (Value, error) {
		return Num(len(v)), nil
	}))
	add(onVec("sum", 2, "sum of vector elements", func(line int, v Vec) (Value, error) {
		return Num(sum(v)), nil
	}))
	add(onVec("mean", 3, "mean of vector elements", func(line int, v Vec) (Value, error) {
		if len(v) == 0 {
			return nil, rtErr(line, "mean of empty vector")
		}
		return Num(sum(v) / float64(len(v))), nil
	}))
	add(Builtin{Name: "dot", Arity: 2, Cost: 4, Help: "dot product",
		fn: func(line int, args []Value) (Value, error) {
			u, err := vec(line, "dot", 0, args[0])
			if err != nil {
				return nil, err
			}
			w, err := vec(line, "dot", 1, args[1])
			if err != nil {
				return nil, err
			}
			if len(u) != len(w) {
				return nil, rtErr(line, "dot: vector lengths %d and %d differ", len(u), len(w))
			}
			s := 0.0
			for i := range u {
				s += u[i] * w[i]
			}
			return Num(s), nil
		}})
	add(onVec("norm", 6, "Euclidean norm", func(line int, v Vec) (Value, error) {
		s := 0.0
		for _, x := range v {
			s += x * x
		}
		return Num(math.Sqrt(s)), nil
	}))
	add(filled("zeros", "vector of n zeros", 0))
	add(filled("ones", "vector of n ones", 1))
	add(onVec("sort", 8, "ascending copy of vector", func(line int, v Vec) (Value, error) {
		out := append(Vec(nil), v...)
		sort.Float64s(out)
		return out, nil
	}))
	add(Builtin{Name: "rand", Arity: 0, Cost: 4, Help: "uniform random in [0,1)"})
	return tbl
}

// Builtins lists the calculator's stateless function panel entries
// (all but rand) sorted by name, for documentation and the panel
// renderer.
func Builtins() []Builtin {
	tbl := builtins()
	out := make([]Builtin, 0, len(tbl))
	for _, b := range tbl {
		if b.fn != nil {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Constants available to every routine: the calculator's constant keys.
var Constants = map[string]float64{
	"pi": math.Pi,
	"e":  math.E,
}
