package pits

import (
	"strings"
	"testing"
)

func TestFormulaBasics(t *testing.T) {
	env := run(t, `
formula square(x) = x * x
formula hyp(a, b) = sqrt(square(a) + square(b))
c = hyp(3, 4)
d = square(c + 1)
`, nil)
	wantNum(t, env, "c", 5)
	wantNum(t, env, "d", 36)
}

func TestFormulaSeesOnlyParamsAndConstants(t *testing.T) {
	prog := MustParse(`
leak = 10
formula bad(x) = x + leak
y = bad(1)
`)
	in := NewInterp()
	err := in.Run(prog, Env{})
	if err == nil || !strings.Contains(err.Error(), `undefined variable "leak"`) {
		t.Errorf("formula read the caller's variables: %v", err)
	}
	// Constants are fine.
	env := run(t, "formula circ(r) = 2 * pi * r\nc = circ(1)", nil)
	wantNum(t, env, "c", 6.283185307179586)
}

func TestFormulaArityAndUnknown(t *testing.T) {
	prog := MustParse("formula f(x, y) = x + y\nz = f(1)")
	in := NewInterp()
	if err := in.Run(prog, Env{}); err == nil || !strings.Contains(err.Error(), "takes 2 argument") {
		t.Errorf("err = %v", err)
	}
}

func TestFormulaCannotShadowBuiltin(t *testing.T) {
	prog := MustParse("formula sqrt(x) = x")
	in := NewInterp()
	if err := in.Run(prog, Env{}); err == nil || !strings.Contains(err.Error(), "shadows a builtin") {
		t.Errorf("err = %v", err)
	}
}

func TestFormulaRecursionStopped(t *testing.T) {
	// Self-reference is rejected statically; mutual recursion is
	// impossible (only earlier formulas are visible). The runtime depth
	// guard is the backstop for the self-call case that slips past the
	// interpreter (which registers the formula before any call).
	prog := MustParse("formula f(x) = f(x)\ny = f(1)")
	in := NewInterp()
	err := in.Run(prog, Env{})
	if err == nil || !strings.Contains(err.Error(), "depth exceeded") {
		t.Errorf("err = %v", err)
	}
	// And the checker rejects it before it ever runs.
	if err := Check(prog, nil); err == nil || !strings.Contains(err.Error(), `unknown function "f"`) {
		t.Errorf("checker: %v", err)
	}
}

func TestFormulaCheckerRules(t *testing.T) {
	cases := []struct{ src, want string }{
		{"formula f(x) = x\nformula f(y) = y", "redefined"},
		{"formula pi(x) = x", "shadows a constant"},
		{"formula abs(x) = x", "shadows a builtin"},
		{"formula f(x) = x + stray", `"stray" used before`},
		{"formula f(x) = g(x)", `unknown function "g"`},
		{"formula f(x) = x\ny = f(1, 2)", "takes 1 argument"},
	}
	for _, tc := range cases {
		prog, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%q: parse: %v", tc.src, err)
		}
		err = Check(prog, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want mention of %q", tc.src, err, tc.want)
		}
	}
	// A clean formula program passes.
	good := MustParse("formula f(x) = x * 2\nformula g(x, y) = f(x) + f(y)\nout = g(a, 3)")
	if err := Check(good, []string{"a"}); err != nil {
		t.Errorf("good program rejected: %v", err)
	}
}

func TestFormulaParserRules(t *testing.T) {
	if _, err := Parse("if c then\n  formula f(x) = x\nend"); err == nil ||
		!strings.Contains(err.Error(), "top level") {
		t.Errorf("nested formula accepted: %v", err)
	}
	if _, err := Parse("formula f(x, x) = x"); err == nil ||
		!strings.Contains(err.Error(), "duplicate parameter") {
		t.Errorf("duplicate parameter accepted: %v", err)
	}
	if _, err := Parse("formula f = 3"); err == nil {
		t.Error("formula without parens accepted")
	}
	// Zero-parameter formulas are legal (named constants).
	env := run(t, "formula answer() = 42\nx = answer()", nil)
	wantNum(t, env, "x", 42)
}

func TestFormulaFormatRoundTrip(t *testing.T) {
	src := "formula hyp(a, b) = sqrt(a ^ 2 + b ^ 2)\nc = hyp(3, 4)\n"
	p1 := MustParse(src)
	f1 := Format(p1)
	if f1 != src {
		t.Errorf("Format = %q, want %q", f1, src)
	}
	p2, err := Parse(f1)
	if err != nil {
		t.Fatal(err)
	}
	env := Env{}
	if err := NewInterp().Run(p2, env); err != nil {
		t.Fatal(err)
	}
	wantNum(t, env, "c", 5)
}

func TestFormulaWritesDoesNotIncludeName(t *testing.T) {
	p := MustParse("formula f(x) = x\ny = f(1)")
	for _, w := range Writes(p) {
		if w == "f" {
			t.Error("formula name listed as a write")
		}
	}
	if err := Check(p, nil); err != nil {
		t.Errorf("a formula reads nothing outside its parameters, yet: %v", err)
	}
}

func TestFormulaVectorArgs(t *testing.T) {
	env := run(t, `
formula rms(v) = sqrt(dot(v, v) / len(v))
r = rms([3, 4])
`, nil)
	wantNum(t, env, "r", 3.5355339059327378)
}
