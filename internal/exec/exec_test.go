package exec

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

func testMachine(t *testing.T, spec string, p machine.Params) *machine.Machine {
	t.Helper()
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(spec, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func params() machine.Params {
	return machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
}

// diamondDesign builds a design with real routines:
//
//	[x0] -> (a: u=2*x0) -> (b: v=u+1), (c: w=u*10) -> (d: y=v+w) -> [y]
func diamondDesign(t *testing.T) *graph.Flat {
	t.Helper()
	g := graph.New("diamond-calc")
	g.MustAddStorage("X0", "x0")
	a := g.MustAddTask("a", "double", 10)
	b := g.MustAddTask("b", "inc", 10)
	c := g.MustAddTask("c", "tens", 10)
	d := g.MustAddTask("d", "combine", 10)
	g.MustAddStorage("Y", "y")
	a.Routine = "u = 2 * x0"
	b.Routine = "v = u + 1"
	c.Routine = "w = u * 10"
	d.Routine = "y = v + w"
	g.MustConnect("X0", "a", "x0", 1)
	g.MustConnect("a", "b", "u", 1)
	g.MustConnect("a", "c", "u", 1)
	g.MustConnect("b", "d", "v", 1)
	g.MustConnect("c", "d", "w", 1)
	g.MustConnect("d", "Y", "y", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func TestSimulateMatchesContentionFreeSchedulers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: 4, Width: 3, MinWork: 1, MaxWork: 30, MinWords: 0, MaxWords: 15, Density: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "hypercube:2", params())
	for _, s := range []sched.Scheduler{sched.Serial{}, sched.HLFET{}, sched.ETF{}, sched.ISH{}, sched.DSH{}, sched.Pack{}, sched.BSP{}} {
		sc, err := s.Schedule(g, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		tr, err := Simulate(sc)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		spans, err := tr.Spans()
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		// Derived spans must equal the scheduler's slots exactly.
		for pe := 0; pe < m.NumPE(); pe++ {
			want := sc.PESlots(pe)
			got := spans[pe]
			if len(got) != len(want) {
				t.Fatalf("%s PE%d: %d spans vs %d slots", s.Name(), pe, len(got), len(want))
			}
			for i := range want {
				if got[i].Task != want[i].Task || got[i].Start != want[i].Start || got[i].Finish != want[i].Finish {
					t.Errorf("%s PE%d slot %d: simulated %+v vs scheduled %+v", s.Name(), pe, i, got[i], want[i])
				}
			}
		}
	}
}

// Property-style version of the exact-replay check: across many random
// layered graphs and machine shapes, the simulator must re-derive every
// contention-free scheduler's slot times exactly.
func TestSimulateReproducesContentionFreeSchedulersRandom(t *testing.T) {
	schedulers := []sched.Scheduler{sched.Serial{}, sched.HLFET{}, sched.ETF{}, sched.ISH{}, sched.DSH{}, sched.Pack{}, sched.BSP{}}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
			Layers: 2 + int(seed%4), Width: 2 + int(seed%3),
			MinWork: 1, MaxWork: 50, MinWords: 0, MaxWords: 25, Density: 0.35,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"hypercube:2", "mesh:2x2", "star:4", "chain:3"} {
			m := testMachine(t, spec, params())
			for _, s := range schedulers {
				sc, err := s.Schedule(g, m)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, spec, s.Name(), err)
				}
				tr, err := Simulate(sc)
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, spec, s.Name(), err)
				}
				spans, err := tr.Spans()
				if err != nil {
					t.Fatalf("seed %d %s/%s: %v", seed, spec, s.Name(), err)
				}
				for pe := 0; pe < m.NumPE(); pe++ {
					want := sc.PESlots(pe)
					got := spans[pe]
					if len(got) != len(want) {
						t.Fatalf("seed %d %s/%s PE%d: %d spans vs %d slots", seed, spec, s.Name(), pe, len(got), len(want))
					}
					for i := range want {
						if got[i].Task != want[i].Task || got[i].Start != want[i].Start || got[i].Finish != want[i].Finish {
							t.Errorf("seed %d %s/%s PE%d slot %d: simulated %+v vs scheduled %+v",
								seed, spec, s.Name(), pe, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSimulateReplaysZeroLengthSlotFirst: a zero-length slot that
// starts with a longer one on its processor replays first, at its own
// time, whatever the two tasks are called. Here ISH puts n0.1 [0,0]
// beside n0.0 [0,3] on PE 0 and feeds n1.0 on PE 1 from it; replaying
// n0.1 after n0.0 (name order) delays that message by 3 and the
// makespan from 10 to 13.
func TestSimulateReplaysZeroLengthSlotFirst(t *testing.T) {
	g := graph.New("zero-length")
	g.MustAddTask("n0.0", "a", 3)
	g.MustAddTask("n0.1", "b", 0)
	g.MustAddTask("n1.0", "c", 2)
	g.MustAddTask("n1.1", "d", 6)
	g.MustConnect("n0.1", "n1.0", "v", 3)
	g.MustConnect("n0.0", "n1.1", "u", 3)
	m := testMachine(t, "full:2", machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 5, WordTime: 1})
	sc, err := sched.ISH{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if sl, _ := sc.PrimarySlot("n0.1"); sl.PE != 0 || sl.Start != 0 || sl.Finish != 0 {
		t.Fatalf("ISH placed n0.1 at %+v; the case needs it zero-length at 0 on PE 0", sl)
	}
	tr, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := tr.Spans()
	if err != nil {
		t.Fatal(err)
	}
	for pe, ss := range spans {
		for _, sp := range ss {
			if sl, _ := sc.PrimarySlot(sp.Task); sl.PE != pe || sl.Start != sp.Start || sl.Finish != sp.Finish {
				t.Errorf("%s simulated on PE%d [%v,%v], scheduled %+v", sp.Task, pe, sp.Start, sp.Finish, sl)
			}
		}
	}
	if got, want := tr.Makespan(), sc.Makespan(); got != want {
		t.Errorf("simulated makespan %v, scheduled %v", got, want)
	}
}

func TestSimulateMHNeverBeatenByScheduledTimes(t *testing.T) {
	// MH charges link contention the simulator doesn't model, so the
	// simulated (contention-free) makespan must be <= MH's estimate.
	g := graph.ForkJoin(6, 20, 40)
	m := testMachine(t, "star:5", params())
	sc, err := sched.MH{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan() > sc.Makespan() {
		t.Errorf("simulated %v > scheduled %v", tr.Makespan(), sc.Makespan())
	}
}

func TestSimulateDetectsInconsistentOrder(t *testing.T) {
	g := graph.Chain(2, 10, 0)
	m := testMachine(t, "full:1", params())
	bad := &sched.Schedule{Graph: g, Machine: m, Algorithm: "bad",
		Slots: []sched.Slot{
			{Task: "t1", PE: 0, Start: 0, Finish: 11},
			{Task: "t0", PE: 0, Start: 11, Finish: 22},
		}}
	if _, err := Simulate(bad); err == nil {
		t.Fatal("consumer-before-producer order accepted")
	}
	if _, err := Simulate(nil); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestPredictedMirrorsSchedule(t *testing.T) {
	g := graph.Diamond(10, 5)
	m := testMachine(t, "full:2", params())
	sc, err := sched.ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := Predicted(sc)
	if tr.Makespan() != sc.Makespan() {
		t.Errorf("trace makespan %v != schedule %v", tr.Makespan(), sc.Makespan())
	}
	starts := 0
	for _, e := range tr.Events {
		if e.Kind == trace.TaskStart {
			starts++
		}
	}
	if starts != len(sc.Slots) {
		t.Errorf("starts = %d, slots = %d", starts, len(sc.Slots))
	}
}

func TestRunnerDiamondProducesCorrectResult(t *testing.T) {
	flat := diamondDesign(t)
	m := testMachine(t, "full:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(3)}}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	// u = 6; v = 7; w = 60; y = 67.
	if res.Outputs["y"] != pits.Num(67) {
		t.Errorf("y = %v, want 67", res.Outputs["y"])
	}
	if res.Outputs["d.y"] != pits.Num(67) {
		t.Errorf("qualified output missing: %v", res.Outputs)
	}
	st, err := res.Trace.Summarize(m.NumPE())
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksRun != 4 {
		t.Errorf("tasks run = %d", st.TasksRun)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestRunnerSameResultOnEverySchedulerAndMachine(t *testing.T) {
	flat := diamondDesign(t)
	for _, spec := range []string{"full:1", "full:2", "hypercube:2", "star:4", "mesh:2x2"} {
		m := testMachine(t, spec, params())
		for _, s := range sched.All() {
			sc, err := s.Schedule(flat.Graph, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, s.Name(), err)
			}
			r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
			res, err := r.Run(sc, flat)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, s.Name(), err)
			}
			if res.Outputs["y"] != pits.Num(111) { // 2*5+1 + 2*5*10
				t.Errorf("%s/%s: y = %v", spec, s.Name(), res.Outputs["y"])
			}
		}
	}
}

func TestRunnerWithDSHDuplicates(t *testing.T) {
	g := graph.New("dup")
	src := g.MustAddTask("src", "", 5)
	c1 := g.MustAddTask("c1", "", 50)
	c2 := g.MustAddTask("c2", "", 50)
	src.Routine = "d = base * 2"
	c1.Routine = "r1 = d + 1"
	c2.Routine = "r2 = d + 2"
	g.MustAddStorage("B", "base")
	g.MustAddStorage("R1", "r1")
	g.MustAddStorage("R2", "r2")
	g.MustConnect("B", "src", "base", 1)
	g.MustConnect("src", "c1", "d", 100)
	g.MustConnect("src", "c2", "d", 100)
	g.MustConnect("c1", "R1", "r1", 1)
	g.MustConnect("c2", "R2", "r2", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:2", machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 5, WordTime: 1})
	sc, err := sched.DSH{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	hasDup := false
	for _, sl := range sc.Slots {
		if sl.Dup {
			hasDup = true
		}
	}
	if !hasDup {
		t.Fatal("expected duplicates in DSH schedule")
	}
	r := &Runner{Inputs: pits.Env{"base": pits.Num(10)}}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["r1"] != pits.Num(21) || res.Outputs["r2"] != pits.Num(22) {
		t.Errorf("outputs = %v", res.Outputs)
	}
	st, err := res.Trace.Summarize(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.DupsRun == 0 {
		t.Error("no duplicate executions in trace")
	}
}

func TestRunnerErrors(t *testing.T) {
	flat := diamondDesign(t)
	m := testMachine(t, "full:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("missing external input", func(t *testing.T) {
		r := &Runner{Inputs: pits.Env{}}
		if _, err := r.Run(sc, flat); err == nil || !strings.Contains(err.Error(), "external input") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("nil schedule", func(t *testing.T) {
		r := &Runner{}
		if _, err := r.Run(nil, flat); err == nil {
			t.Error("nil accepted")
		}
	})
	t.Run("routine does not produce arc variable", func(t *testing.T) {
		bad := diamondDesign(t)
		bad.Graph.Node("a").Routine = "unrelated = 1" // never defines u
		sc2, err := sched.ETF{}.Schedule(bad.Graph, m)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(1)}}
		if _, err := r.Run(sc2, bad); err == nil {
			t.Error("missing produced variable accepted")
		}
	})
	t.Run("syntax error fails fast", func(t *testing.T) {
		bad := diamondDesign(t)
		bad.Graph.Node("a").Routine = "u = "
		sc2, err := sched.ETF{}.Schedule(bad.Graph, m)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(1)}}
		if _, err := r.Run(sc2, bad); err == nil {
			t.Error("syntax error accepted")
		}
	})
	t.Run("runaway task aborts whole run", func(t *testing.T) {
		bad := diamondDesign(t)
		bad.Graph.Node("b").Routine = "v = 1\nwhile true do\n  v = v + 1\nend"
		sc2, err := sched.ETF{}.Schedule(bad.Graph, m)
		if err != nil {
			t.Fatal(err)
		}
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(1)}, MaxSteps: 10_000}
		_, err = r.Run(sc2, bad)
		if err == nil || !strings.Contains(err.Error(), "step limit") {
			t.Errorf("err = %v", err)
		}
	})
}

// calibrate runs every routine once in topological order (a miniature
// rehearsal) and sets each task's Work to its measured interpreter ops,
// so virtual-time execution and the machine model agree exactly.
func calibrate(t *testing.T, flat *graph.Flat, inputs pits.Env) {
	t.Helper()
	order, err := flat.Graph.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	produced := map[graph.NodeID]pits.Env{}
	for _, id := range order {
		n := flat.Graph.Node(id)
		env := pits.Env{}
		for _, v := range flat.ExternalIn[id] {
			env[v] = inputs[v]
		}
		for _, a := range flat.Graph.Pred(id) {
			env[a.Var] = produced[a.From][a.Var]
		}
		prog, err := pits.Parse(n.Routine)
		if err != nil {
			t.Fatalf("task %s: %v", id, err)
		}
		ops, out, _, err := pits.Measure(prog, env)
		if err != nil {
			t.Fatalf("task %s: %v", id, err)
		}
		produced[id] = out
		n.Work = ops
		if n.Work < 1 {
			n.Work = 1
		}
	}
}

// The virtual-time runner trace and the discrete-event simulation must
// be event-for-event identical — same kinds, times, tasks, variables
// and peer processors — for a contention-free schedule of a calibrated
// design. This is what makes real-run traces directly diffable against
// predictions.
func TestRunnerVirtualTraceMatchesSimulate(t *testing.T) {
	flat := diamondDesign(t)
	inputs := pits.Env{"x0": pits.Num(3)}
	calibrate(t, flat, inputs)
	for _, spec := range []string{"full:2", "hypercube:2", "star:4"} {
		m := testMachine(t, spec, params())
		for _, s := range []sched.Scheduler{sched.ETF{}, sched.HLFET{}, sched.Pack{}} {
			sc, err := s.Schedule(flat.Graph, m)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, s.Name(), err)
			}
			sim, err := Simulate(sc)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, s.Name(), err)
			}
			r := &Runner{Inputs: inputs, VirtualTime: true}
			res, err := r.Run(sc, flat)
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, s.Name(), err)
			}
			got := res.Trace
			got.Sort()
			sim.Sort()
			if len(got.Events) != len(sim.Events) {
				t.Fatalf("%s/%s: %d run events vs %d simulated\nrun:\n%s\nsim:\n%s",
					spec, s.Name(), len(got.Events), len(sim.Events), got, sim)
			}
			for i := range sim.Events {
				// Sequence numbers are allocation order, which depends on
				// goroutine interleaving; the simulator leaves them 0.
				ge := got.Events[i]
				ge.Seq = 0
				if ge != sim.Events[i] {
					t.Errorf("%s/%s event %d: run %+v != simulated %+v",
						spec, s.Name(), i, got.Events[i], sim.Events[i])
				}
			}
		}
	}
}

// When one worker fails, the others die with cascade-abort errors; the
// reported error must lead with the originating failure, not the
// cascade.
func TestRunnerReportsRootCauseBeforeCascade(t *testing.T) {
	g := graph.New("cascade")
	a := g.MustAddTask("a", "runaway", 10)
	c := g.MustAddTask("c", "consumer", 10)
	a.Routine = "u = 1\nwhile true do\n  u = u + 1\nend"
	c.Routine = "z = u"
	g.MustConnect("a", "c", "u", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:2", params())
	// Hand-placed schedule pinning the consumer to the other processor,
	// so its worker is blocked in receive when the producer fails.
	sc := &sched.Schedule{Graph: flat.Graph, Machine: m, Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 11},
			{Task: "c", PE: 1, Start: 17, Finish: 28},
		},
		Msgs: []sched.Msg{{Var: "u", From: "a", To: "c", FromPE: 0, ToPE: 1, Words: 1, Send: 11, Recv: 17, Hops: 1}},
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	r := &Runner{MaxSteps: 1_000}
	_, err = r.Run(sc, flat)
	if err == nil {
		t.Fatal("runaway run succeeded")
	}
	msg := err.Error()
	rootAt := strings.Index(msg, "step limit")
	cascadeAt := strings.Index(msg, "aborted")
	if rootAt < 0 {
		t.Fatalf("root cause missing from error: %v", err)
	}
	if cascadeAt >= 0 && cascadeAt < rootAt {
		t.Errorf("cascade reported before root cause: %v", err)
	}
	if !strings.Contains(msg, "cascade") {
		t.Errorf("cascade count missing from error: %v", err)
	}
}

// Two tasks exporting the same unqualified variable must be rejected
// loudly instead of silently overwriting each other in merge order.
func TestRunnerDetectsOutputNameCollision(t *testing.T) {
	g := graph.New("collide")
	t1 := g.MustAddTask("t1", "", 5)
	t2 := g.MustAddTask("t2", "", 5)
	t1.Routine = "v = 1"
	t2.Routine = "v = 2"
	g.MustAddStorage("O1", "v")
	g.MustAddStorage("O2", "v")
	g.MustConnect("t1", "O1", "v", 1)
	g.MustConnect("t2", "O2", "v", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	_, err = r.Run(sc, flat)
	if err == nil {
		t.Fatal("colliding external outputs accepted")
	}
	for _, want := range []string{`"v"`, "t1", "t2", "t1.v", "t2.v"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("collision error missing %q: %v", want, err)
		}
	}
}

func TestRunnerCollectsPrints(t *testing.T) {
	g := graph.New("p")
	n := g.MustAddTask("only", "", 1)
	n.Routine = `print "hello", 21 * 2`
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:1", params())
	sc, err := sched.Serial{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Printed) != 1 || res.Printed[0] != "only: hello 42" {
		t.Errorf("printed = %q", res.Printed)
	}
}

func TestRunnerDeterministicWithRand(t *testing.T) {
	g := graph.New("mc")
	n := g.MustAddTask("draw", "", 1)
	n.Routine = "x = rand() + rand()"
	g.MustAddStorage("X", "x")
	g.MustConnect("draw", "X", "x", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{}
	res1, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Outputs["x"], res2.Outputs["x"]) {
		t.Errorf("rand()-using task not reproducible: %v vs %v", res1.Outputs["x"], res2.Outputs["x"])
	}
}

// TestRunnerRandStreamIsPerTask: a processor reuses one interpreter for
// all its slots, and every task still draws from the start of the
// stream its own name seeds — "t3_7" the literal it drew before the
// generator became lazy, its successor on the same processor what a
// fresh interpreter draws.
func TestRunnerRandStreamIsPerTask(t *testing.T) {
	g := graph.New("mc")
	g.MustAddTask("t3_7", "", 1).Routine = "x = rand()"
	g.MustAddTask("next", "", 1).Routine = "y = x * 0 + rand()"
	g.MustAddStorage("X", "x")
	g.MustAddStorage("Y", "y")
	g.MustConnect("t3_7", "X", "x", 1)
	g.MustConnect("t3_7", "next", "x", 1)
	g.MustConnect("next", "Y", "y", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "full:2", params()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["x"]; got != pits.Num(0.6347779984446368) {
		t.Errorf("t3_7 (seed %d) drew %v, want 0.6347779984446368", taskSeed("t3_7"), got)
	}
	fresh := pits.Env{}
	if err := (&pits.Interp{Seed: taskSeed("next")}).Run(pits.MustParse("y = rand()"), fresh); err != nil {
		t.Fatal(err)
	}
	if res.Outputs["y"] != fresh["y"] {
		t.Errorf("next drew %v, a fresh interpreter with its seed draws %v", res.Outputs["y"], fresh["y"])
	}
}

// TestWallClockSummaryCountsEveryTask: on the wall clock a task can
// start and end inside one microsecond, and the 501-task design's
// one-line routines mostly do. Every one of them is still a span.
func TestWallClockSummaryCountsEveryTask(t *testing.T) {
	flat, inputs := layeredCalc(t, 20, 25)
	sc, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	st, err := res.Trace.Summarize(sc.Machine.NumPE())
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksRun != 501 {
		t.Errorf("summary counts %d tasks, want 501", st.TasksRun)
	}
}

// Property: for random designs with arithmetic routines, the runner's
// outputs are identical across all schedulers (schedule choice must
// never change semantics).
func TestRunnerScheduleInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random three-layer design: 2 sources, 3 middles, 1 sink.
		g := graph.New("rand-calc")
		g.MustAddStorage("IN", "x0")
		for i := 0; i < 2; i++ {
			n := g.MustAddTask(graph.NodeID(srcName(i)), "", int64(rng.Intn(20)+1))
			n.Routine = srcName(i) + "_out = x0 * " + itoa(rng.Intn(5)+1)
			g.MustConnect("IN", n.ID, "x0", 1)
		}
		for i := 0; i < 3; i++ {
			n := g.MustAddTask(graph.NodeID(midName(i)), "", int64(rng.Intn(20)+1))
			p := srcName(rng.Intn(2))
			n.Routine = midName(i) + "_out = " + p + "_out + " + itoa(rng.Intn(9))
			g.MustConnect(graph.NodeID(p), n.ID, p+"_out", int64(rng.Intn(10)))
		}
		sink := g.MustAddTask("sink", "", 5)
		sink.Routine = "total = m0_out + m1_out + m2_out"
		for i := 0; i < 3; i++ {
			g.MustConnect(graph.NodeID(midName(i)), "sink", midName(i)+"_out", 1)
		}
		g.MustAddStorage("OUT", "total")
		g.MustConnect("sink", "OUT", "total", 1)
		flat, err := g.Flatten()
		if err != nil {
			t.Logf("flatten: %v", err)
			return false
		}
		m := testMachine(t, "hypercube:2", params())
		var want pits.Value
		for _, s := range sched.All() {
			sc, err := s.Schedule(flat.Graph, m)
			if err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
			r := &Runner{Inputs: pits.Env{"x0": pits.Num(float64(rng.Intn(50)))}}
			// Reseed identically by rebuilding the inputs outside the loop.
			r.Inputs = pits.Env{"x0": pits.Num(7)}
			res, err := r.Run(sc, flat)
			if err != nil {
				t.Logf("%s run: %v", s.Name(), err)
				return false
			}
			got := res.Outputs["total"]
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(want, got) {
				t.Logf("%s: total %v != %v", s.Name(), got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func srcName(i int) string { return "s" + itoa(i) }
func midName(i int) string { return "m" + itoa(i) }

func itoa(i int) string {
	if i < 0 || i > 99 {
		return "0"
	}
	digits := "0123456789"
	if i < 10 {
		return string(digits[i])
	}
	return string(digits[i/10]) + string(digits[i%10])
}

// Data-parallel sharding (the paper's fine-grained future work) must
// not change program results, under any scheduler.
func TestRunnerShardedReduction(t *testing.T) {
	g := graph.New("shardable")
	g.MustAddStorage("N", "n")
	w := g.MustAddTask("work", "big reduction", 1000)
	w.Routine = `total = 0
lo = floor((shard - 1) * n / nshards) + 1
hi = floor(shard * n / nshards)
for i = lo to hi do
  total = total + i
end`
	sink := g.MustAddTask("sink", "consume", 10)
	sink.Routine = "result = total"
	g.MustConnect("N", "work", "n", 1)
	g.MustConnect("work", "sink", "total", 1)
	g.MustAddStorage("OUT", "result")
	g.MustConnect("sink", "OUT", "result", 1)
	if err := graph.ShardTask(g, "work", 4, 20, graph.GatherSum(4, "total")); err != nil {
		t.Fatal(err)
	}
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "hypercube:2", params())
	for _, s := range sched.All() {
		sc, err := s.Schedule(flat.Graph, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		r := &Runner{Inputs: pits.Env{"n": pits.Num(100)}}
		res, err := r.Run(sc, flat)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Outputs["result"] != pits.Num(5050) { // 1+..+100
			t.Errorf("%s: result = %v, want 5050", s.Name(), res.Outputs["result"])
		}
	}
}
