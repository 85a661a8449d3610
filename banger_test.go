package banger_test

import (
	"math"
	"strings"
	"testing"

	banger "repro"
)

// TestQuickstartFlow exercises the README's quick-start path through
// the public facade only.
func TestQuickstartFlow(t *testing.T) {
	env, err := banger.OpenBuiltin("lu3x3")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := env.Schedule("mh")
	if err != nil {
		t.Fatal(err)
	}
	chart := banger.GanttChart(sc, 72)
	if !strings.Contains(chart, "PE0") {
		t.Errorf("chart:\n%s", chart)
	}
	res, err := env.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	x := res.Outputs["x"].(banger.Vec)
	for i, want := range []float64{1, 2, 3} {
		if math.Abs(x[i]-want) > 1e-9 {
			t.Errorf("x[%d] = %v", i+1, x[i])
		}
	}
}

func TestBuildDesignThroughFacade(t *testing.T) {
	g := banger.NewGraph("two-step")
	n1 := g.MustAddTask("gen", "generate", 10)
	n1.Routine = "v = [1, 2, 3, 4]"
	n2 := g.MustAddTask("agg", "aggregate", 10)
	n2.Routine = "total = sum(v)"
	g.MustConnect("gen", "agg", "v", 4)
	g.MustAddStorage("OUT", "total")
	g.MustConnect("agg", "OUT", "total", 1)

	m, err := banger.NewMachine("pair", "full:2", banger.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := &banger.Project{Name: "two-step", Design: g, Machine: m}
	env, err := banger.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := env.Schedule("etf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outputs["total"] != banger.Num(10) {
		t.Errorf("total = %v", res.Outputs["total"])
	}
}

// TestZeroLengthTaskIsASpan: a placeholder task with no routine measures
// zero operations, and on a machine without task start-up cost its
// virtual-time slot starts and ends at one instant. The run's trace must
// still summarise and chart: it used to fail with `PE 0 ends "b" without
// matching start`.
func TestZeroLengthTaskIsASpan(t *testing.T) {
	g := banger.NewGraph("placeholder")
	g.MustAddStorage("IN", "x")
	g.MustAddTask("a", "a", 10).Routine = "u = x + 1"
	g.MustAddTask("b", "b", 10)
	g.MustAddTask("c", "c", 10).Routine = "out = u * 2"
	g.MustAddStorage("OUT", "out")
	g.MustConnect("IN", "a", "x", 1)
	g.MustConnect("a", "b", "u", 1)
	g.MustConnect("a", "c", "u", 1)
	g.MustConnect("c", "OUT", "out", 1)
	p := banger.DefaultParams()
	p.TaskStartup = 0
	m, err := banger.NewMachine("pair", "ring:2", p)
	if err != nil {
		t.Fatal(err)
	}
	env, err := banger.Open(&banger.Project{Name: "placeholder", Design: g, Machine: m, Inputs: banger.Env{"x": banger.Num(1)}})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := env.Schedule("etf")
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.RunVirtual(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := res.Trace.Summarize(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.TasksRun != 3 || res.Outputs["out"] != banger.Num(4) {
		t.Errorf("summary counts %d tasks, out = %v; want 3 and 4", st.TasksRun, res.Outputs["out"])
	}
	chart, err := banger.TraceChart(res.Trace, 2, 60)
	if err != nil || !strings.Contains(chart, "PE1") {
		t.Errorf("chart error %v:\n%s", err, chart)
	}
	if _, err := banger.Animation(res.Trace, 2, 4); err != nil {
		t.Error(err)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if len(banger.Schedulers()) != 8 {
		t.Errorf("schedulers = %d", len(banger.Schedulers()))
	}
	if _, err := banger.SchedulerByName("mh"); err != nil {
		t.Error(err)
	}
	names := banger.Builtins()
	if len(names) != 4 {
		t.Errorf("builtins = %v", names)
	}
	if _, err := banger.NewMachine("x", "bogus", banger.DefaultParams()); err == nil {
		t.Error("bad topo spec accepted")
	}
	rep, err := banger.TrialRun("y = sqrt(a)", banger.Env{"a": banger.Num(9)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outputs["y"] != banger.Num(3) {
		t.Errorf("y = %v", rep.Outputs["y"])
	}
}

func TestFacadeChartsAndCode(t *testing.T) {
	env, err := banger.OpenBuiltin("stats")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := env.Schedule("etf")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := banger.Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	chart, err := banger.TraceChart(tr, sc.Machine.NumPE(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "simulated:etf") {
		t.Errorf("chart:\n%s", chart)
	}
	svg := banger.GanttSVG(sc)
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("svg shape")
	}
	pts, err := env.SpeedupCurve("etf", []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s := banger.SpeedupChart(pts, 8); !strings.Contains(s, "speedup vs processors") {
		t.Errorf("speedup chart:\n%s", s)
	}
	src, err := banger.GenerateCode(sc, env.Flat, env.Project.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "package main") {
		t.Error("generated source shape")
	}
}

func TestFacadePanel(t *testing.T) {
	p := banger.NewPanel("demo")
	p.DeclareInput("a", banger.Num(4))
	p.DeclareOutput("b")
	p.LoadProgram("b = a * a")
	if err := p.Press("RUN"); err != nil {
		t.Fatal(err)
	}
	out := banger.RenderPanel(p)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "b = 16") {
		t.Errorf("panel:\n%s", out)
	}
}
