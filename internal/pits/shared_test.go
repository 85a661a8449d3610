package pits_test

import (
	"fmt"
	"reflect"
	"sync"
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

// TestSharedProgramRunsConcurrently: a compiled Program carries its code
// and constants, and is never written after Parse, so 32 goroutines may
// run one *Program at once, each on its own Interp, inputs and seed.
// Each goroutine's results, operation count, printed lines and rand()
// draws must equal those of the same run made alone.
func TestSharedProgramRunsConcurrently(t *testing.T) {
	prog := pits.MustParse(`formula hyp(a, b) = sqrt(a*a + b*b)
formula jitter(a) = a + rand()
s = 0
for i = 1 to 20 do
  s = s + hyp(x, i)
  v[1 + i % 3] = jitter(v[1 + i % 3])
end
n = 0
while n < x do
  n = n + 1
end
draws = [rand(), rand()]
print "s", s, v`)
	type outcome struct {
		env string
		ops int64
		out []string
	}
	run := func(i int) (outcome, error) {
		in := &pits.Interp{Seed: int64(i + 1)}
		env := pits.Env{"x": pits.Num(i), "v": pits.Vec{1, 2, float64(i)}}
		err := in.Run(prog, env)
		return outcome{fmt.Sprint(env), in.Ops(), in.Output()}, err
	}
	const n = 32
	solo := make([]outcome, n)
	for i := range solo {
		var err error
		if solo[i], err = run(i); err != nil {
			t.Fatal(err)
		}
	}
	shared := make([]outcome, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared[i], errs[i] = run(i)
		}()
	}
	wg.Wait()
	for i := range shared {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(shared[i], solo[i]) {
			t.Errorf("goroutine %d ran %+v on the shared program, %+v alone", i, shared[i], solo[i])
		}
	}
}
