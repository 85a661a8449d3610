package pits_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/project"
)

// TestInterpGolden is the interpreter's differential oracle. For every
// routine and input of a fixed corpus it pins the final environment,
// the printed lines, the operation count and, for a routine that
// fails, the exact error text, in testdata/interp_golden.txt. A task's
// virtual-time stamp is ExecTime(ops), so an operation charged at a
// different point is a changed trace: the golden must hold byte for
// byte across any change to how routines execute. The corpus:
//
//   - every task of the built-in projects (LU, heat, Newton, stats),
//     run in topological order on the project's inputs;
//   - every task of conform.Generate's designs for seeds 1..40;
//   - the routines of the examples;
//   - every builtin on a fixed list of argument lists, good and bad;
//   - the runtime-error cases (step limit, division by zero, index
//     range, undefined variable, formula depth, a formula shadowing a
//     builtin, ...) and the formula semantics cases;
//   - seeded random routines and token soups, under a step budget.
//
// Regenerate (only when the language's semantics or its cost model
// intentionally change) with:
//
//	go test ./internal/pits -run TestInterpGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/interp_golden.txt from the current interpreter")

const interpGoldenPath = "testdata/interp_golden.txt"

type goldenCase struct {
	name     string
	src      string
	inputs   pits.Env
	seed     int64
	maxSteps int64
}

func TestInterpGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range literalCorpus() {
		prog, err := pits.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		record(&b, c, prog)
	}
	for _, name := range project.BuiltinNames() {
		p, err := project.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := p.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		recordDesign(t, &b, "project/"+name, flat, p.Inputs)
	}
	for seed := int64(1); seed <= 40; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := c.Design.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		recordDesign(t, &b, fmt.Sprintf("conform/%d", seed), flat, c.Inputs)
	}
	for i, src := range randomCorpus() {
		prog, err := pits.Parse(src)
		if err != nil {
			continue // the parser is not under test here
		}
		record(&b, goldenCase{name: fmt.Sprintf("random/%d", i), src: src, seed: int64(i),
			inputs: randomInputs(), maxSteps: 2000}, prog)
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(interpGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(interpGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			// Name the case the first difference falls in.
			name := ""
			for j := i; j >= 0; j-- {
				if strings.HasPrefix(wl[j], "== ") {
					name = wl[j]
					break
				}
			}
			t.Fatalf("golden differs at line %d (%s):\n got  %s\n want %s", i+1, name, gl[i], wl[i])
		}
	}
	t.Fatalf("golden differs in length: %d lines, want %d", len(gl), len(wl))
}

// record runs one case on a fresh interpreter and appends its outcome.
func record(b *strings.Builder, c goldenCase, prog *pits.Program) pits.Env {
	in := &pits.Interp{Seed: c.seed, MaxSteps: c.maxSteps}
	if c.seed == 0 {
		in.Seed = 1
	}
	env := c.inputs.Clone()
	if env == nil {
		env = pits.Env{}
	}
	err := in.Run(prog, env)
	h := fnv.New64a()
	h.Write([]byte(c.src))
	fmt.Fprintf(b, "== %s %016x\nops %d\n", c.name, h.Sum64(), in.Ops())
	names := make([]string, 0, len(env))
	for k := range env {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b, "var %s = %s\n", k, show(env[k]))
	}
	for _, line := range in.Output() {
		fmt.Fprintf(b, "print %q\n", line)
	}
	if err != nil {
		fmt.Fprintf(b, "err %s\n", err)
		return nil
	}
	return env
}

// recordDesign runs a design's tasks in topological order, each on the
// external inputs and its producers' results, the way a rehearsal does.
func recordDesign(t *testing.T, b *strings.Builder, name string, flat *graph.Flat, inputs pits.Env) {
	order, err := flat.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[graph.NodeID]pits.Env{}
	for _, id := range order {
		n := flat.Graph.Node(id)
		if n.Routine == "" {
			continue
		}
		env := pits.Env{}
		for _, v := range flat.ExternalIn[id] {
			env[v] = inputs[v]
		}
		for _, a := range flat.Graph.PredArcs(id) {
			if v, ok := produced[a.From][a.Var]; ok {
				env[a.Var] = v
			}
		}
		prog, err := pits.Parse(n.Routine)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, id, err)
		}
		produced[id] = record(b, goldenCase{name: name + "/" + string(id), src: n.Routine, inputs: env}, prog)
	}
}

// show renders a value exactly: every float to its shortest round-trip
// form.
func show(v pits.Value) string {
	switch x := v.(type) {
	case pits.Num:
		return strconv.FormatFloat(float64(x), 'g', -1, 64)
	case pits.Vec:
		parts := make([]string, len(x))
		for i, f := range x {
			parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "[" + strings.Join(parts, " ") + "]"
	case pits.StrV:
		return strconv.Quote(string(x))
	case pits.BoolV:
		return x.String()
	}
	return fmt.Sprintf("%T(%v)", v, v)
}

func literalCorpus() []goldenCase {
	var cs []goldenCase
	add := func(name, src string, inputs pits.Env) {
		cs = append(cs, goldenCase{name: name, src: src, inputs: inputs})
	}

	// The examples' routines.
	add("example/quickstart/double", "u = 2 * x0", pits.Env{"x0": pits.Num(3)})
	add("example/quickstart/inc", "v = u + 1", pits.Env{"u": pits.Num(6)})
	add("example/quickstart/tens", "w = u * 10", pits.Env{"u": pits.Num(6)})
	add("example/quickstart/combine", "y = v + w", pits.Env{"v": pits.Num(7), "w": pits.Num(60)})
	add("example/montecarlo/w0", `hits = 0
repeat n do
  dx = rand()
  dy = rand()
  if dx * dx + dy * dy <= 1 then
    hits = hits + 1
  end
end
w0_hits = hits`, pits.Env{"n": pits.Num(500)})
	add("example/montecarlo/gather", "total = w0_hits + w1_hits\npi_est = 4 * total / (2 * n)",
		pits.Env{"w0_hits": pits.Num(393), "w1_hits": pits.Num(388), "n": pits.Num(500)})
	for _, same := range []bool{true, false} {
		seqb := pits.Vec{1, 3, 2}
		if same {
			seqb = pits.Vec{1, 2, 3}
		}
		add(fmt.Sprintf("example/editdistance/d2_2/%v", same), `cost = 1
if seqa[2] == seqb[2] then
  cost = 0
end
d2_2 = min(d1_2 + 1, d2_1 + 1, d1_1 + cost)`, pits.Env{"seqa": pits.Vec{1, 2, 3}, "seqb": seqb,
			"d1_2": pits.Num(1), "d2_1": pits.Num(1), "d1_1": pits.Num(0)})
	}
	add("example/calculator/sqrt", `x = a
eps = 1e-12
err = 1
while err > eps do
  xold = x
  x = 0.5 * (xold + a / xold)
  err = abs(x - xold)
end`, pits.Env{"a": pits.Num(2)})

	// Every builtin on every argument list: good calls, wrong arity,
	// wrong types and domain errors.
	argLists := []string{"", "0.5", "2", "-1", "0", "[3, 1, 2]", "[]", "true", `"s"`,
		"2, 3", "2, 0", "[1, 2], [3, 4]", "[1], [1, 2]", "3, 1, 2", "1e7 + 1"}
	names := []string{"rand"}
	for _, bi := range pits.Builtins() {
		names = append(names, bi.Name)
	}
	for _, fn := range names {
		for i, args := range argLists {
			add(fmt.Sprintf("builtin/%s/%d", fn, i), "y = "+fn+"("+args+")", nil)
		}
	}

	// Runtime errors.
	for i, src := range []string{
		"y = x + 1", "y = 1 / 0", "y = 1 % 0", "v = [1]\ny = v[true]", "v = [1]\ny = v[1.5]",
		"v = [1, 2]\ny = v[3]", "v = [1, 2]\ny = v[0]", "x = 5\ny = x[1]", "v[1] = 5",
		"x = 1\nx[1] = 5", "y = nosuch(1)", "y = sqrt(1, 2)", "y = sqrt(-1)",
		"if 1 then\n  x = 1\nend", "y = [1, 2] + [1, 2, 3]", "repeat -1 do\n  x = 1\nend",
		"repeat 1.5 do\n  x = 1\nend", "for i = 1 to 3 step 0 do\n  x = 1\nend",
		"for i = true to 3 do\n  x = 1\nend", "for i = 1 to [1] do\nend", "for i = 1 to 3 step \"s\" do\nend",
		"y = true + 1", `y = -"a"`, "y = not 3", "y = 1 < true", "y = 1 == true", "y = [1] == true",
		"y = min([])", "y = dot([1], [1, 2])", "y = zeros(-2)", "y = 2 ^ 2000", "y = (-8) ^ 0.5",
		"v = [1, 2]\nv[1] = [3]", "v = [1, 2]\nv[3] = 1", "v = [1, 2]\nv[nope] = 1", "v = [1, 2]\nv[1.5] = 1",
		"v = [1, 2]\nv[true] = 1", "y = [1, true, 1 / 0]", "y = [1 / 0, true]", "y = true and 1 / 0",
		"y = 1 and true", "y = false and 1", "y = true or 1", "y = false or 1", "y = nosuch(1 / 0)",
		"y = sqrt(1 / 0, 2)", "x = 1\ny = x[1 / 0]", "while 1 do\nend", "x = 0\nwhile true do\n  x = x + 1\nend",
		"y = -[1, 2] + 1 - [2, 3] * [4, 5] / 2 % 3 ^ 1", "y = [1, 2] / [1, 0]", "y = 2 / [1, 0]",
		"y = [1, 0] % 0", "print 1 / 0", "print \"a\", 1 / 0", "y = sqrt(true)",
	} {
		add(fmt.Sprintf("error/%d", i), src, nil)
	}
	cs = append(cs, goldenCase{name: "error/step-limit", src: "x = 0\nwhile true do\n  x = x + 1\nend", maxSteps: 1000})
	cs = append(cs, goldenCase{name: "error/step-limit-repeat", src: "s = 0\nrepeat 1e9 do\n  s = s + 1\nend", maxSteps: 500})
	cs = append(cs, goldenCase{name: "error/step-limit-for", src: "s = 0\nfor i = 1 to 1e9 do\n  s = s + i\nend", maxSteps: 500})
	cs = append(cs, goldenCase{name: "error/step-limit-exact", src: "a = 1\nb = 2\nc = 3", maxSteps: 2})

	// Formulas: scope, order, redefinition, depth and shadowing.
	for i, src := range []string{
		"formula f(x) = f(x)\ny = f(1)",
		"formula f(x) = g(x)\nformula g(x) = f(x)\ny = f(1)",
		"formula sqrt(x) = x\ny = sqrt(4)",
		"y = sqrt(4)\nformula sqrt(x) = x",
		"leak = 3\nformula f(x) = x + leak\ny = f(1)",
		"formula f(x) = x + pi\ny = f(1)",
		"pi = 3\nformula f(x) = x + pi\ny = f(1) + pi",
		"formula f(x, y) = x * y\nz = f(2)",
		"formula f(x, y) = x * y\nz = f(2, 3, 4)",
		"formula f(x, y) = x * y\nz = f(2, 1 / 0)",
		"y = f(1)\nformula f(x) = x + 1",
		"formula f(x) = g(x) + 1\nformula g(x) = x * 10\ny = f(2)",
		"formula f(x) = g(x) + 1\ny = f(2)\nformula g(x) = x * 10",
		"formula f(x) = x + 1\na = f(1)\nformula f(x) = x + 100\nb = f(1)",
		"formula f(x) = x + 1\na = f(1)\nformula f(x, y) = x + y\nb = f(1)",
		"formula f() = 7\ny = f()",
		"formula f(v) = v[2] + len(v)\ny = f([4, 5, 6])",
		"formula f(x) = rand() + x\ny = f(1)\nz = rand()",
		"formula hyp(a, b) = sqrt(a*a + b*b)\ns = 0\nfor i = 1 to 3 do\n  s = s + hyp(x, i)\nend\nout = s",
		"formula f(x) = [x, x * 2]\nv = f(3)\nv[1] = 9\nw = f(3)",
		"formula f(x) = x > 1 and x < 5\ny = f(3)\nz = f(7)",
		"formula f(x) = -x\ny = f(true)",
		"formula d(n) = d(n - 1) + 1\ny = d(3)",
		"formula f(x) = x + 1\nif true then\n  y = f(1)\nend",
	} {
		add(fmt.Sprintf("formula/%d", i), src, pits.Env{"x": pits.Num(3)})
	}

	// Semantics the runner and the calculator lean on.
	for i, src := range []string{
		"w = v\nw[1] = 99\nz = v[1]",
		"v[2] = 42\nz = v[2]",
		"for i = 1 to 3 do\n  i = i * 10\n  s = i\nend",
		"s = 0\nfor i = 10 to 1 step -3 do\n  s = s + i\nend\nlast = i",
		"s = 0\nfor i = 0.5 to 2 step 0.25 do\n  s = s + i\nend",
		"for i = 3 to 1 do\n  s = 1\nend",
		"n = 0\nrepeat 3 do\n  repeat 2 do\n    n = n + 1\n  end\nend",
		"n = 0\nrepeat 2.0 do\n  n = n + 1\nend",
		"i = 0\nwhile i < 4 do\n  i = i + 1\n  if i % 2 == 0 then\n    print \"even\", i\n  elseif i == 3 then\n    print \"three\"\n  else\n    print \"odd\", i\n  end\nend",
		"print\nprint \"x is\", x, v, true, \"\"",
		"pi = 3\ny = pi + e",
		"y = [x, x + 1, [1, 2] == [1, 2], 3][2]",
		"y = [1, 2] == [1, 2, 3]\nz = \"a\" == \"a\"\nw = true != false\nq = [1, 2] != [1, 3]",
		"y = -v\nz = v * 2 + 1\nq = 2 - v\nr = v ^ 2\nm = v % 2\nd = 12 / v",
		"y = not (x > 2) or x < 1",
		"y = 7 % -3\nz = -7 % 3\nq = 2 ^ -1\nr = 0 ^ 0",
		"y = 1e308 * 10",
		"y = sort([3, 1, 2])\ny[1] = 100\nz = y",
		"x = x + 1\nx = x * 2",
		"a = rand()\nb = rand()",
	} {
		add(fmt.Sprintf("semantics/%d", i), src, pits.Env{"x": pits.Num(3), "v": pits.Vec{1, 2, 3}})
	}
	// Deep nesting, statements and expressions alike.
	deep := strings.Repeat("if true then\n", 200) + "x = 1\n" + strings.Repeat("end\n", 200)
	add("semantics/deep-if", deep, nil)
	add("semantics/deep-expr", "y = "+strings.Repeat("(1 + ", 300)+"0"+strings.Repeat(")", 300), nil)
	cs = append(cs, goldenCase{name: "semantics/seed-7", src: "v = [rand(), rand(), rand()]", seed: 7})
	return cs
}

func randomInputs() pits.Env {
	return pits.Env{"a": pits.Num(2), "b": pits.Num(-1.5), "v": pits.Vec{1, 2, 3}}
}

// randomCorpus is seeded random routines: structured ones, mostly
// well-formed, whose errors are as much under test as their results,
// and token soups.
func randomCorpus() []string {
	rng := rand.New(rand.NewSource(49))
	vars := []string{"a", "b", "v", "w", "i", "pi", "c"}
	fns := []string{"sqrt", "abs", "min", "max", "len", "sum", "floor", "mod", "pow", "rand", "zeros", "dot", "sort"}
	ops := []string{"+", "-", "*", "/", "%", "^", "==", "!=", "<", "<=", ">", ">=", "and", "or"}
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	var expr func(d int, params []string) string
	expr = func(d int, params []string) string {
		names := vars
		if params != nil {
			names = append(params, "pi", "leak")
		}
		if d <= 0 || rng.Intn(4) == 0 {
			switch rng.Intn(7) {
			case 0:
				return strconv.Itoa(rng.Intn(7) - 1)
			case 1:
				return strconv.FormatFloat(float64(rng.Intn(400))/100, 'g', -1, 64)
			case 2:
				return pick([]string{"true", "false", `"s"`})
			default:
				return pick(names)
			}
		}
		switch rng.Intn(12) {
		case 0:
			return "-" + expr(d-1, params)
		case 1:
			return "not " + expr(d-1, params)
		case 2:
			return "[" + expr(d-1, params) + ", " + expr(d-1, params) + "]"
		case 3:
			return pick(names) + "[" + expr(d-1, params) + "]"
		case 4, 5:
			n := rng.Intn(3)
			args := make([]string, n)
			for i := range args {
				args[i] = expr(d-1, params)
			}
			return pick(fns) + "(" + strings.Join(args, ", ") + ")"
		case 6:
			args := []string{expr(d-1, params)}
			if rng.Intn(3) == 0 {
				args = append(args, expr(d-1, params))
			}
			return pick([]string{"f", "g", "h"}) + "(" + strings.Join(args, ", ") + ")"
		default:
			return "(" + expr(d-1, params) + " " + pick(ops) + " " + expr(d-1, params) + ")"
		}
	}
	var block func(d int, ind string) string
	block = func(d int, ind string) string {
		var b strings.Builder
		for n := 1 + rng.Intn(3); n > 0; n-- {
			k := rng.Intn(10)
			if d <= 0 && k >= 4 {
				k = 0
			}
			switch k {
			case 0, 1:
				fmt.Fprintf(&b, "%s%s = %s\n", ind, pick(vars), expr(3, nil))
			case 2:
				fmt.Fprintf(&b, "%s%s[%s] = %s\n", ind, pick(vars), expr(1, nil), expr(2, nil))
			case 3:
				fmt.Fprintf(&b, "%sprint %s, %s\n", ind, expr(2, nil), expr(1, nil))
			case 4:
				fmt.Fprintf(&b, "%sif %s then\n%s", ind, expr(2, nil), block(d-1, ind+"  "))
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "%selseif %s then\n%s", ind, expr(2, nil), block(d-1, ind+"  "))
				}
				if rng.Intn(2) == 0 {
					fmt.Fprintf(&b, "%selse\n%s", ind, block(d-1, ind+"  "))
				}
				fmt.Fprintf(&b, "%send\n", ind)
			case 5:
				fmt.Fprintf(&b, "%swhile %s do\n%s%send\n", ind, expr(2, nil), block(d-1, ind+"  "), ind)
			case 6:
				fmt.Fprintf(&b, "%swhile c < 4 do\n%s  c = c + 1\n%s%send\n", ind, ind, block(d-1, ind+"  "), ind)
			case 7:
				fmt.Fprintf(&b, "%srepeat %s do\n%s%send\n", ind, expr(1, nil), block(d-1, ind+"  "), ind)
			default:
				step := ""
				if rng.Intn(3) == 0 {
					step = " step " + expr(1, nil)
				}
				fmt.Fprintf(&b, "%sfor i = %s to %s%s do\n%s%send\n", ind, expr(1, nil), expr(2, nil), step, block(d-1, ind+"  "), ind)
			}
		}
		return b.String()
	}
	var out []string
	for n := 0; n < 400; n++ {
		var b strings.Builder
		if rng.Intn(4) > 0 {
			b.WriteString("c = 0\n")
		}
		for _, f := range []string{"f", "g", "h"} {
			if rng.Intn(3) == 0 {
				params := []string{"x", "y"}[:1+rng.Intn(2)]
				fmt.Fprintf(&b, "formula %s(%s) = %s\n", f, strings.Join(params, ", "), expr(3, params))
			}
		}
		b.WriteString(block(3, ""))
		out = append(out, b.String())
	}
	// Token soups, as in TestTokenSoupNeverPanics.
	pieces := []string{
		"a", "b", "v", "= ", "1", "2.5", "+", "-", "*", "/", "^", "%",
		"if ", "then\n", "else\n", "end\n", "while ", "do\n", "repeat ",
		"for ", "to ", "step ", "print ", "(", ")", "[", "]", ",",
		"sqrt", "min", "and ", "or ", "not ", "true", "false", "\n",
		"formula ", "==", "<", "<=", `"s"`, "pi",
	}
	for n := 0; n < 3000; n++ {
		var b strings.Builder
		for i := rng.Intn(25); i > 0; i-- {
			b.WriteString(pick(pieces))
		}
		out = append(out, b.String())
	}
	return out
}
