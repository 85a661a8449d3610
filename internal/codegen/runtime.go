package codegen

// runtimeSrc is the small dynamic-value runtime embedded into every
// generated program. It mirrors the semantics of the PITS interpreter
// (scalar/vector broadcasting, 1-based indexing, panics on domain
// errors) using only the standard library.
const runtimeSrc = `import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// val is a PITS runtime value: float64, []float64, bool or string.
type val = any

func panicVal(msg string) val { panic(msg) }

func asNum(v val) float64 {
	f, ok := v.(float64)
	if !ok {
		panic(fmt.Sprintf("expected a number, got %T", v))
	}
	return f
}

func asVec(v val) []float64 {
	x, ok := v.([]float64)
	if !ok {
		panic(fmt.Sprintf("expected a vector, got %T", v))
	}
	return x
}

func truth(v val) bool {
	b, ok := v.(bool)
	if !ok {
		panic(fmt.Sprintf("condition must be a boolean, got %T", v))
	}
	return b
}

func get(env map[string]val, name string) val {
	if v, ok := env[name]; ok {
		return v
	}
	switch name {
	case "pi":
		return math.Pi
	case "e":
		return math.E
	}
	panic("undefined variable " + strconv.Quote(name))
}

// store copies vectors on assignment so variables never alias.
func store(v val) val {
	if x, ok := v.([]float64); ok {
		return append([]float64(nil), x...)
	}
	return v
}

func index(base, idx val) val {
	v := asVec(base)
	i := int(asNum(idx))
	if float64(i) != asNum(idx) || i < 1 || i > len(v) {
		panic(fmt.Sprintf("index %v out of range 1..%d", idx, len(v)))
	}
	return v[i-1]
}

func setIndex(env map[string]val, name string, idx, x val) {
	v := asVec(get(env, name))
	i := int(asNum(idx))
	if float64(i) != asNum(idx) || i < 1 || i > len(v) {
		panic(fmt.Sprintf("index %v out of range 1..%d", idx, len(v)))
	}
	v[i-1] = asNum(x)
}

func broadcast(a, b val, f func(x, y float64) float64) val {
	switch x := a.(type) {
	case float64:
		switch y := b.(type) {
		case float64:
			return f(x, y)
		case []float64:
			out := make([]float64, len(y))
			for i := range y {
				out[i] = f(x, y[i])
			}
			return out
		}
	case []float64:
		switch y := b.(type) {
		case float64:
			out := make([]float64, len(x))
			for i := range x {
				out[i] = f(x[i], y)
			}
			return out
		case []float64:
			if len(x) != len(y) {
				panic(fmt.Sprintf("vector lengths %d and %d differ", len(x), len(y)))
			}
			out := make([]float64, len(x))
			for i := range x {
				out[i] = f(x[i], y[i])
			}
			return out
		}
	}
	panic(fmt.Sprintf("cannot combine %T and %T", a, b))
}

func add(a, b val) val { return broadcast(a, b, func(x, y float64) float64 { return x + y }) }
func sub(a, b val) val { return broadcast(a, b, func(x, y float64) float64 { return x - y }) }
func mul(a, b val) val { return broadcast(a, b, func(x, y float64) float64 { return x * y }) }

func div(a, b val) val {
	return broadcast(a, b, func(x, y float64) float64 {
		if y == 0 {
			panic("division by zero")
		}
		return x / y
	})
}

func modv(a, b val) val {
	return broadcast(a, b, func(x, y float64) float64 {
		if y == 0 {
			panic("modulo by zero")
		}
		return math.Mod(x, y)
	})
}

func powv(a, b val) val {
	return broadcast(a, b, func(x, y float64) float64 {
		r := math.Pow(x, y)
		if math.IsNaN(r) || math.IsInf(r, 0) {
			panic("power result not finite")
		}
		return r
	})
}

func neg(a val) val {
	switch x := a.(type) {
	case float64:
		return -x
	case []float64:
		out := make([]float64, len(x))
		for i := range x {
			out[i] = -x[i]
		}
		return out
	}
	panic(fmt.Sprintf("cannot negate %T", a))
}

func lt(a, b val) val { return asNum(a) < asNum(b) }
func le(a, b val) val { return asNum(a) <= asNum(b) }
func gt(a, b val) val { return asNum(a) > asNum(b) }
func ge(a, b val) val { return asNum(a) >= asNum(b) }

func eq(a, b val) val {
	switch x := a.(type) {
	case float64:
		return x == asNum(b)
	case bool:
		return x == truth(b)
	case string:
		y, ok := b.(string)
		if !ok {
			panic("cannot compare string with non-string")
		}
		return x == y
	case []float64:
		y := asVec(b)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	panic(fmt.Sprintf("cannot compare %T", a))
}

func ne(a, b val) val { return !truth(eq(a, b)) }

// taskRand is a task's own rand() stream, seeded as every engine seeds
// the task (pits.TaskSeed).
func taskRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func call(fn string, args ...val) val {
	n1 := func() float64 { return asNum(args[0]) }
	switch fn {
	case "sqrt":
		return mustFinite(fn, math.Sqrt(n1()))
	case "abs":
		return math.Abs(n1())
	case "sin":
		return math.Sin(n1())
	case "cos":
		return math.Cos(n1())
	case "tan":
		return math.Tan(n1())
	case "asin":
		return mustFinite(fn, math.Asin(n1()))
	case "acos":
		return mustFinite(fn, math.Acos(n1()))
	case "atan":
		return math.Atan(n1())
	case "atan2":
		return math.Atan2(n1(), asNum(args[1]))
	case "exp":
		return mustFinite(fn, math.Exp(n1()))
	case "ln":
		return mustFinite(fn, math.Log(n1()))
	case "log10":
		return mustFinite(fn, math.Log10(n1()))
	case "floor":
		return math.Floor(n1())
	case "ceil":
		return math.Ceil(n1())
	case "round":
		return math.Round(n1())
	case "pow":
		return mustFinite(fn, math.Pow(n1(), asNum(args[1])))
	case "mod":
		if asNum(args[1]) == 0 {
			panic("mod by zero")
		}
		return math.Mod(n1(), asNum(args[1]))
	case "min", "max":
		xs := numArgs(args)
		best := xs[0]
		for _, x := range xs[1:] {
			if (fn == "min" && x < best) || (fn == "max" && x > best) {
				best = x
			}
		}
		return best
	case "len":
		return float64(len(asVec(args[0])))
	case "sum":
		s := 0.0
		for _, x := range asVec(args[0]) {
			s += x
		}
		return s
	case "mean":
		v := asVec(args[0])
		if len(v) == 0 {
			panic("mean of empty vector")
		}
		s := 0.0
		for _, x := range v {
			s += x
		}
		return s / float64(len(v))
	case "dot":
		u, w := asVec(args[0]), asVec(args[1])
		if len(u) != len(w) {
			panic("dot: lengths differ")
		}
		s := 0.0
		for i := range u {
			s += u[i] * w[i]
		}
		return s
	case "norm":
		s := 0.0
		for _, x := range asVec(args[0]) {
			s += x * x
		}
		return math.Sqrt(s)
	case "zeros":
		return make([]float64, int(n1()))
	case "ones":
		v := make([]float64, int(n1()))
		for i := range v {
			v[i] = 1
		}
		return v
	case "sort":
		out := append([]float64(nil), asVec(args[0])...)
		sort.Float64s(out)
		return out
	}
	panic("unknown function " + strconv.Quote(fn))
}

func mustFinite(fn string, x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fn + " result not finite")
	}
	return x
}

func numArgs(args []val) []float64 {
	if len(args) == 1 {
		if v, ok := args[0].([]float64); ok {
			if len(v) == 0 {
				panic("empty vector")
			}
			return v
		}
	}
	out := make([]float64, len(args))
	for i, a := range args {
		out[i] = asNum(a)
	}
	return out
}

var emitMu sync.Mutex

func emit(args ...val) {
	emitMu.Lock()
	defer emitMu.Unlock()
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = show(a)
	}
	fmt.Println(strings.Join(parts, " "))
}

func show(v val) string {
	switch x := v.(type) {
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatInt(int64(x), 10)
		}
		return strconv.FormatFloat(x, 'g', 10, 64)
	case []float64:
		parts := make([]string, len(x))
		for i, f := range x {
			parts[i] = show(f)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case bool:
		return strconv.FormatBool(x)
	case string:
		return x
	}
	return fmt.Sprintf("%v", v)
}

`
