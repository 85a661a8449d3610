package pits

import (
	"math/rand"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestCheckAcceptsWellFormedRoutine(t *testing.T) {
	prog := MustParse(`
x = a
eps = 1e-12
err = 1
while err > eps do
  xold = x
  x = 0.5 * (xold + a / xold)
  err = abs(x - xold)
end
`)
	if err := Check(prog, []string{"a"}); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestCheckReportsUndefinedUse(t *testing.T) {
	prog := MustParse("y = x + 1")
	err := Check(prog, nil)
	if err == nil || !strings.Contains(err.Error(), `"x" used before`) {
		t.Errorf("err = %v", err)
	}
	// Same routine is fine when x is declared as an input.
	if err := Check(prog, []string{"x"}); err != nil {
		t.Errorf("with input: %v", err)
	}
}

func TestCheckBranchDefinitionIsPossiblyDefined(t *testing.T) {
	prog := MustParse(`
if c then
  x = 1
end
y = x
`)
	// x is only defined on one path, but the conservative checker
	// accepts possibly-defined uses (no false positives).
	if err := Check(prog, []string{"c"}); err != nil {
		t.Errorf("Check: %v", err)
	}
}

func TestCheckRejectsConstAssignmentAndBadCalls(t *testing.T) {
	cases := []struct{ src, want string }{
		{"pi = 3", "constant"},
		{"x = nosuch(1)", "unknown function"},
		{"x = sqrt()", "takes 1 argument"},
		{"x = min()", "at least one argument"},
		{"v[1] = 2", `"v" used before`},
	}
	for _, tc := range cases {
		prog := MustParse(tc.src)
		err := Check(prog, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: err = %v, want mention of %q", tc.src, err, tc.want)
		}
	}
}

func TestReadsAndWrites(t *testing.T) {
	prog := MustParse(`
x = a + b
b = 2
c = x * b
v[1] = q
print label
for i = 1 to n do
  s = i
end
`)
	reads := undefined(t, prog, nil)
	want := []string{"a", "b", "label", "n", "q", "v"}
	if !reflect.DeepEqual(reads, want) {
		t.Errorf("reads = %v, want %v", reads, want)
	}
	writes := Writes(prog)
	// v counts as a write too: indexed assignment mutates the vector.
	wantW := []string{"b", "c", "i", "s", "v", "x"}
	if !reflect.DeepEqual(writes, wantW) {
		t.Errorf("Writes = %v, want %v", writes, wantW)
	}
}

func TestReadsExcludesConstants(t *testing.T) {
	prog := MustParse("area = pi * r ^ 2")
	if reads := undefined(t, prog, nil); !reflect.DeepEqual(reads, []string{"r"}) {
		t.Errorf("reads = %v", reads)
	}
	if err := Check(prog, []string{"r"}); err != nil {
		t.Errorf("pi is a constant, yet: %v", err)
	}
}

// undefined returns the sorted set of variables Check reports as used
// before they are defined, given defined: with nothing defined, the
// routine's reads.
func undefined(t *testing.T, p *Program, defined []string) []string {
	t.Helper()
	err := Check(p, defined)
	if err == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, m := range regexp.MustCompile(`variable "([^"]+)" used before it is defined`).FindAllStringSubmatch(err.Error(), -1) {
		seen[m[1]] = true
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func TestFormatCanonicalises(t *testing.T) {
	prog := MustParse("x=1+2*3\nif x>5 then\ny=x\nelse\ny=0-x\nend")
	got := Format(prog)
	want := `x = 1 + 2 * 3
if x > 5 then
  y = x
else
  y = 0 - x
end
`
	if got != want {
		t.Errorf("Format:\n%q\nwant\n%q", got, want)
	}
}

func TestFormatParenthesisation(t *testing.T) {
	cases := []string{
		"x = (1 + 2) * 3",
		"x = 1 + 2 + 3",
		"x = 2 ^ 3 ^ 2",
		"x = (2 ^ 3) ^ 2",
		"x = -(2 ^ 2)",
		"x = not (a and b)",
		"x = a and (b or c)",
		"x = v[i + 1] * 2",
		"x = [1, 2 + 3, sqrt(4)]",
		`print "hi", 1 < 2`,
		"for i = 1 to 10 step 2 do\n  s = s + i\nend",
	}
	for _, src := range cases {
		p1 := MustParse(src)
		f1 := Format(p1)
		p2, err := Parse(f1)
		if err != nil {
			t.Errorf("%q: formatted output %q does not parse: %v", src, f1, err)
			continue
		}
		if f2 := Format(p2); f1 != f2 {
			t.Errorf("%q: format not idempotent:\n%q\n%q", src, f1, f2)
		}
	}
}

// Property: Format(Parse(x)) re-parses to a program whose formatted
// form is identical (format∘parse is idempotent) and whose behaviour
// on a random env matches the original.
func TestFormatRoundTripPreservesSemantics(t *testing.T) {
	srcs := []string{
		"y = (a + b) * (a - b)\nz = y ^ 2 % 7",
		"s = 0\nfor i = 1 to 10 do\n  s = s + i * i\nend",
		"x = a\nwhile x > 1 do\n  x = x / 2\nend\nflag = x <= 1 and a > 0",
		"v = [a, b, a + b]\nv[2] = v[1] * 2\nt2 = sum(v) + max(v) - min(v)",
		"if a > b then\n  m = a\nelseif a == b then\n  m = 0 - 1\nelse\n  m = b\nend",
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := srcs[rng.Intn(len(srcs))]
		inputs := Env{
			"a": Num(float64(rng.Intn(100) + 1)),
			"b": Num(float64(rng.Intn(100) + 1)),
		}
		p1 := MustParse(src)
		p2, err := Parse(Format(p1))
		if err != nil {
			t.Logf("reparse: %v", err)
			return false
		}
		env1, env2 := inputs.Clone(), inputs.Clone()
		i1, i2 := NewInterp(), NewInterp()
		err1 := i1.Run(p1, env1)
		err2 := i2.Run(p2, env2)
		if (err1 == nil) != (err2 == nil) {
			t.Logf("errors differ: %v vs %v", err1, err2)
			return false
		}
		if err1 != nil {
			return true
		}
		if len(env1) != len(env2) {
			return false
		}
		for k, v := range env1 {
			if !reflect.DeepEqual(v, env2[k]) {
				t.Logf("var %s: %v vs %v", k, v, env2[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMeasureMatchesInterpreterOps(t *testing.T) {
	p := MustParse("s = 0\nrepeat 10 do\n  s = s + sqrt(s + 1)\nend")
	ops, env, _, err := Measure(p, Env{})
	if err != nil {
		t.Fatal(err)
	}
	in := NewInterp()
	env2 := Env{}
	if err := in.Run(p, env2); err != nil {
		t.Fatal(err)
	}
	if ops != in.Ops() {
		t.Errorf("Measure ops %d != direct ops %d", ops, in.Ops())
	}
	if !reflect.DeepEqual(env["s"], env2["s"]) {
		t.Error("results differ")
	}
}

func TestMeasureDoesNotMutateInputs(t *testing.T) {
	inputs := Env{"v": Vec{1, 2, 3}}
	p := MustParse("v[1] = 99")
	_, env, _, err := Measure(p, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if inputs["v"].(Vec)[0] != 1 {
		t.Error("Measure mutated caller inputs")
	}
	if env["v"].(Vec)[0] != 99 {
		t.Error("Measure result lost")
	}
}

func TestTrialRun(t *testing.T) {
	rep, err := TrialRun("x = a * 2\nprint x", Env{"a": Num(21)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outputs["x"] != Num(42) {
		t.Errorf("x = %v", rep.Outputs["x"])
	}
	if len(rep.Printed) != 1 || rep.Printed[0] != "42" {
		t.Errorf("printed = %v", rep.Printed)
	}
	if rep.Ops <= 0 {
		t.Errorf("ops = %d", rep.Ops)
	}
	if !strings.Contains(rep.String(), "trial run") {
		t.Errorf("String = %q", rep.String())
	}
	if _, err := TrialRun("x = ", nil); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := TrialRun("x = 1 / 0", nil); err == nil {
		t.Error("runtime failure not reported")
	}
}

func TestBuiltinsListIsSortedAndDocumented(t *testing.T) {
	bs := Builtins()
	if len(bs) < 20 {
		t.Fatalf("only %d builtins", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Name >= bs[i].Name {
			t.Errorf("not sorted: %s >= %s", bs[i-1].Name, bs[i].Name)
		}
	}
	for _, b := range bs {
		if b.Help == "" {
			t.Errorf("builtin %s lacks help text", b.Name)
		}
		if b.Cost <= 0 {
			t.Errorf("builtin %s has cost %d", b.Name, b.Cost)
		}
	}
}
