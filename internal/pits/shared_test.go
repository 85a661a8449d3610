package pits_test

import (
	"testing"

	"repro/internal/codegen"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

// TestSharedProgramIsReadOnly: Parse hands every caller the same
// *Program for the same text, so nothing that takes one may write to
// it. Each consumer runs twice over one program; its rendering must not
// move.
func TestSharedProgramIsReadOnly(t *testing.T) {
	const src = `formula hyp(a, b) = sqrt(a*a + b*b)
s = 0
for i = 1 to 3 do
  s = s + hyp(x, i)
end
if s > 1 then
  print "s ", s
end
out = s`
	prog, err := pits.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	want := pits.Format(prog)

	g := graph.New("one")
	g.MustAddStorage("IN", "x")
	g.MustAddTask("t", "t", 10).Routine = src
	g.MustAddStorage("OUT", "out")
	g.MustConnect("IN", "t", "x", 1)
	g.MustConnect("t", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := machine.Hypercube(1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := (sched.ETF{}).Schedule(flat.Graph, machine.MustNew("m", topo, machine.DefaultParams()))
	if err != nil {
		t.Fatal(err)
	}
	inputs := pits.Env{"x": pits.Num(3)}

	for name, use := range map[string]func() error{
		"Check": func() error { return pits.Check(prog, []string{"x"}) },
		"Measure": func() error {
			_, _, _, err := pits.Measure(prog, inputs)
			return err
		},
		"codegen": func() error {
			_, err := codegen.Generate(sc, flat, inputs)
			return err
		},
	} {
		for run := 1; run <= 2; run++ {
			if err := use(); err != nil {
				t.Fatalf("%s, run %d: %v", name, run, err)
			}
			if got := pits.Format(prog); got != want {
				t.Errorf("%s, run %d changed the shared program:\n%s\nwas:\n%s", name, run, got, want)
			}
		}
	}
	if again, _ := pits.Parse(src); again != prog {
		t.Error("codegen and the test did not share one program")
	}
}
