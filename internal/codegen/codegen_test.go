package codegen

import (
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	bexec "repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
)

// buildAndRun compiles the generated source in a throwaway module and
// runs it, returning stdout.
func buildAndRun(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module generated\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "prog")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s\n--- source ---\n%s", err, out, numbered(src))
	}
	run := exec.Command(bin)
	out, err := run.CombinedOutput()
	if err != nil {
		t.Fatalf("generated program failed: %v\n%s", err, out)
	}
	return string(out)
}

func numbered(src string) string {
	lines := strings.Split(src, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(strings.Repeat(" ", 4-len(itoa(i+1)))+itoa(i+1)+" "+l, " ") + "\n")
	}
	return b.String()
}

func itoa(i int) string {
	var out []byte
	if i == 0 {
		return "0"
	}
	for i > 0 {
		out = append([]byte{byte('0' + i%10)}, out...)
		i /= 10
	}
	return string(out)
}

func TestGeneratedLUProgramSolvesSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program with the go toolchain")
	}
	p, err := project.LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{sched.Serial{}, sched.ETF{}, sched.DSH{}} {
		sc, err := s.Schedule(flat.Graph, p.Machine)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Generate(sc, flat, p.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		out := buildAndRun(t, src)
		if !strings.Contains(out, "x = [1, 2, 3]") {
			t.Errorf("%s: generated program output:\n%s", s.Name(), out)
		}
	}
}

func TestGeneratedProgramControlFlowAndBuiltins(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program with the go toolchain")
	}
	g := graph.New("cf")
	n := g.MustAddTask("t", "", 10)
	n.Routine = `s = 0
for i = 1 to 10 do
  s = s + i
end
k = 0
while k < 3 do
  k = k + 1
end
v = [3, 1, 2]
v2 = sort(v)
flag = false
if s == 55 and k == 3 then
  flag = true
end
r = 0
repeat 4 do
  r = r + sqrt(4)
end
combo = min(v) + max(v2) + dot(v, v2) - norm([3, 4])
print "s", s
print "combo", combo
out = s + k + r`
	g.MustAddStorage("OUT", "out")
	g.MustConnect("t", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := machine.Full(1)
	m, _ := machine.New("m", topo, machine.DefaultParams())
	sc, err := sched.Serial{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(sc, flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := buildAndRun(t, src)
	for _, want := range []string{"s 55", "combo", "out = 66"} { // 55 + 3 + 8
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestGeneratedProgramMatchesInterpreter: the generated binary prints
// every external output exactly as exec.Runner computes it — on the stats
// pipeline, whose cross-PE messages cross a mesh machine, and on two
// tasks that draw from rand(), whose streams are seeded per task as every
// engine seeds them.
func TestGeneratedProgramMatchesInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program with the go toolchain")
	}
	p, err := project.StatsPipeline()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	matchesRunner(t, flat, p.Machine, p.Inputs)

	g := graph.New("draws")
	for _, w := range []string{"w0", "w1"} {
		n := g.MustAddTask(graph.NodeID(w), "", 10)
		n.Routine = w + "_s = 0\nrepeat 5 do\n  " + w + "_s = " + w + "_s + rand()\nend"
		g.MustAddStorage(graph.NodeID("OUT_"+w), w+"_s")
		g.MustConnect(graph.NodeID(w), graph.NodeID("OUT_"+w), w+"_s", 1)
	}
	if flat, err = g.Flatten(); err != nil {
		t.Fatal(err)
	}
	topo, err := machine.ParseTopology("ring:2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New("ring:2", topo, machine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	matchesRunner(t, flat, m, nil)
}

// matchesRunner schedules flat with ETF on m, and compares the
// generated program's output lines with the runner's outputs.
func matchesRunner(t *testing.T, flat *graph.Flat, m *machine.Machine, inputs pits.Env) {
	t.Helper()
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&bexec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	var want []string // one line per external output, as the program prints them
	for _, vars := range flat.ExternalOut {
		for _, v := range vars {
			want = append(want, v+" = "+res.Outputs[v].String())
		}
	}
	sort.Strings(want)
	src, err := Generate(sc, flat, inputs)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buildAndRun(t, src)), "\n")
	if len(want) == 0 || len(lines) < len(want) {
		t.Fatalf("%s: want outputs %q, the program printed %q", flat.Graph.Name, want, lines)
	}
	got := lines[len(lines)-len(want):] // the outputs close the program's stdout, sorted
	if !slices.Equal(got, want) {
		t.Errorf("%s: the generated program printed\n  %s\nthe runner computed\n  %s",
			flat.Graph.Name, strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, nil, nil); err == nil {
		t.Error("nil schedule accepted")
	}
	g := graph.New("bad")
	n := g.MustAddTask("t", "", 1)
	n.Routine = "x = "
	topo, _ := machine.Full(1)
	m, _ := machine.New("m", topo, machine.DefaultParams())
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.Serial{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(sc, flat, nil); err == nil {
		t.Error("unparsable routine accepted")
	}
	if _, err := Generate(sc, flat, pits.Env{"bad": unserialisable{}}); err == nil {
		t.Error("unserialisable input accepted")
	}
}

type unserialisable struct{}

func (unserialisable) TypeName() string { return "mystery" }
func (unserialisable) String() string   { return "?" }

func TestGeneratedSourceShape(t *testing.T) {
	p, err := project.LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ETF{}.Schedule(flat.Graph, p.Machine)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(sc, flat, p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Code generated by banger codegen", "package main",
		"go func() { // PE", "wg.Wait()", "task0(", "inputs :=",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("source missing %q", want)
		}
	}
	// Cross-PE arcs become channels.
	if sc.UsedPEs() > 1 && !strings.Contains(src, "make(chan val, 1)") {
		t.Error("no channels generated for a multi-PE schedule")
	}
}

func TestGeneratedProgramWithFormulas(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program with the go toolchain")
	}
	g := graph.New("formulas")
	n := g.MustAddTask("t", "", 10)
	n.Routine = `formula square(x) = x * x
formula hyp(a, b) = sqrt(square(a) + square(b))
c = hyp(3, 4)
out = square(c) + hyp(5, 12)`
	g.MustAddStorage("OUT", "out")
	g.MustConnect("t", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	topo, _ := machine.Full(1)
	m, _ := machine.New("m", topo, machine.DefaultParams())
	sc, err := sched.Serial{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(sc, flat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "fml_square :=") || !strings.Contains(src, "fml_hyp(") {
		t.Fatalf("formulas not compiled to closures:\n%s", src)
	}
	out := buildAndRun(t, src)
	if !strings.Contains(out, "out = 38") { // 25 + 13
		t.Errorf("output:\n%s", out)
	}
}

// The generated heat program must reproduce the sequential diffusion
// reference exactly — PITS semantics survive compilation to Go.
func TestGeneratedHeatMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a program with the go toolchain")
	}
	p, err := project.Heat()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.MH{}.Schedule(flat.Graph, p.Machine)
	if err != nil {
		t.Fatal(err)
	}
	src, err := Generate(sc, flat, p.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	out := buildAndRun(t, src)
	want := project.HeatReference(4, 3, p.Inputs)
	// Spot-check the hottest interior cell printed by the binary: the
	// final segments appear as "seg<k>_2 = [...]" lines.
	if !strings.Contains(out, "seg1_2 = [") {
		t.Fatalf("output missing segment lines:\n%s", out)
	}
	// The middle of the rod should still be at 100 after 3 steps with
	// this spike initial condition.
	if want[15] != 100 {
		t.Fatalf("reference sanity: want[15] = %v", want[15])
	}
	if !strings.Contains(out, "100, 100, 100") {
		t.Errorf("generated program output lacks the hot plateau:\n%s", out)
	}
}
