package pits

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Parse must never panic, whatever bytes arrive — a calculator front
// end feeds it raw user input.
func TestParseNeverPanicsOnRandomInput(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Random token soup: syntactically plausible fragments glued together
// must parse-or-error without panicking, and anything that parses must
// run-or-error without panicking under a small step budget.
func TestTokenSoupNeverPanics(t *testing.T) {
	pieces := []string{
		"x", "y", "v", "= ", "1", "2.5", "+", "-", "*", "/", "^", "%",
		"if ", "then\n", "else\n", "end\n", "while ", "do\n", "repeat ",
		"for ", "to ", "step ", "print ", "(", ")", "[", "]", ",",
		"sqrt", "min", "and ", "or ", "not ", "true", "false", "\n",
		"formula ", "==", "<", "<=", `"s"`, "pi",
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 400; trial++ {
		var b strings.Builder
		n := rng.Intn(25)
		for i := 0; i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		src := b.String()
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", src, r)
				}
			}()
			prog, err := Parse(src)
			if err != nil {
				return
			}
			in := &Interp{MaxSteps: 10_000}
			_ = in.Run(prog, Env{"x": Num(1), "y": Num(2), "v": Vec{1, 2, 3}})
		}()
	}
}

// The checker must be panic-free on anything the parser accepts.
func TestCheckNeverPanicsOnParsedPrograms(t *testing.T) {
	srcs := []string{
		"", "x = 1", "print", "formula f() = 1\nx = f()",
		"v = [1]\nv[x] = v[1]",
		"if true then\nelse\nend",
		"for i = 1 to 0 do\nend",
	}
	for _, src := range srcs {
		prog, err := Parse(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("Check panicked on %q: %v", src, r)
				}
			}()
			_ = Check(prog, []string{"x"})
			_ = Writes(prog)
			_ = Format(prog)
		}()
	}
}

// Deep nesting must not blow the stack at sane depths.
func TestDeeplyNestedProgram(t *testing.T) {
	depth := 200
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("if true then\n")
	}
	b.WriteString("x = 1\n")
	for i := 0; i < depth; i++ {
		b.WriteString("end\n")
	}
	prog, err := Parse(b.String())
	if err != nil {
		t.Fatal(err)
	}
	env := Env{}
	if err := NewInterp().Run(prog, env); err != nil {
		t.Fatal(err)
	}
	if env["x"] != Num(1) {
		t.Error("nested execution lost the assignment")
	}
	// Deep expressions, too.
	expr := strings.Repeat("(1 + ", 300) + "0" + strings.Repeat(")", 300)
	prog2, err := Parse("y = " + expr)
	if err != nil {
		t.Fatal(err)
	}
	env2 := Env{}
	if err := NewInterp().Run(prog2, env2); err != nil {
		t.Fatal(err)
	}
	if env2["y"] != Num(300) {
		t.Errorf("y = %v", env2["y"])
	}
}
