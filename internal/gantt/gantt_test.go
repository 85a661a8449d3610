package gantt

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

func demoSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	g := graph.ForkJoin(3, 20, 2)
	topo, err := machine.Hypercube(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New("hc2", topo, machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 2, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChartShowsEveryPEAndHeader(t *testing.T) {
	s := demoSchedule(t)
	out := Chart(s, 60)
	for _, want := range []string{"etf on hc2", "makespan", "PE0", "PE1", "PE2", "PE3", "|"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart missing %q:\n%s", want, out)
		}
	}
	// Task labels appear somewhere in the bars.
	if !strings.Contains(out, "src") {
		t.Errorf("chart shows no task label:\n%s", out)
	}
}

func TestChartEmptySchedule(t *testing.T) {
	g := graph.New("empty-ish")
	g.MustAddTask("t", "", 0)
	topo, _ := machine.Full(1)
	m, _ := machine.New("m", topo, machine.Params{ProcSpeed: 1})
	s := &sched.Schedule{Graph: g, Machine: m, Algorithm: "none"}
	out := Chart(s, 40)
	if !strings.Contains(out, "empty") {
		t.Errorf("chart = %q", out)
	}
}

func TestChartMinimumWidth(t *testing.T) {
	s := demoSchedule(t)
	out := Chart(s, 1) // clamped to 20
	lines := strings.Split(out, "\n")
	if len(lines) < 5 {
		t.Fatalf("chart too short:\n%s", out)
	}
	for _, l := range lines {
		if strings.HasPrefix(l, "  PE") && len(l) < 20 {
			t.Errorf("row too narrow: %q", l)
		}
	}
}

func TestFromTraceMarksDuplicates(t *testing.T) {
	tr := &trace.Trace{Label: "x"}
	tr.Add(trace.Event{Kind: trace.TaskStart, At: 0, Task: "alpha", PE: 0})
	tr.Add(trace.Event{Kind: trace.TaskEnd, At: 50, Task: "alpha", PE: 0})
	tr.Add(trace.Event{Kind: trace.TaskStart, At: 0, Task: "alpha", PE: 1, Dup: true})
	tr.Add(trace.Event{Kind: trace.TaskEnd, At: 50, Task: "alpha", PE: 1, Dup: true})
	out, err := FromTrace(tr, 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "+alpha") {
		t.Errorf("duplicate not marked:\n%s", out)
	}
	// Broken trace propagates the error.
	bad := &trace.Trace{}
	bad.Add(trace.Event{Kind: trace.TaskEnd, At: 1, Task: "x", PE: 0})
	if _, err := FromTrace(bad, 1, 40); err == nil {
		t.Error("broken trace accepted")
	}
}

func TestSpeedupChart(t *testing.T) {
	pts := []sched.SpeedupPoint{
		{PEs: 1, Makespan: 100, Speedup: 1},
		{PEs: 2, Makespan: 60, Speedup: 1.67},
		{PEs: 4, Makespan: 40, Speedup: 2.5},
		{PEs: 8, Makespan: 35, Speedup: 2.86},
	}
	out := Speedup(pts, 10)
	for _, want := range []string{"speedup vs processors", "*", "·", "1 PE", "8 PE", "makespan"} {
		if !strings.Contains(out, want) {
			t.Errorf("speedup chart missing %q:\n%s", want, out)
		}
	}
	if Speedup(nil, 5) != "(no points)\n" {
		t.Error("empty curve not handled")
	}
}

func TestCSVFormats(t *testing.T) {
	s := demoSchedule(t)
	csv := CSV(s)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if lines[0] != "task,pe,start_us,finish_us,dup" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != len(s.Slots)+1 {
		t.Errorf("%d rows for %d slots", len(lines)-1, len(s.Slots))
	}
	for _, l := range lines[1:] {
		if strings.Count(l, ",") != 4 {
			t.Errorf("bad row %q", l)
		}
	}
}

func TestSVGWellFormedEnough(t *testing.T) {
	s := demoSchedule(t)
	svg := SVG(s)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatalf("svg structure:\n%.120s...", svg)
	}
	if strings.Count(svg, "<rect") != len(s.Slots) {
		t.Errorf("%d rects for %d slots", strings.Count(svg, "<rect"), len(s.Slots))
	}
	for _, want := range []string{"PE0", "makespan", "font-family"} {
		if !strings.Contains(svg, want) {
			t.Errorf("svg missing %q", want)
		}
	}
}

func TestSVGMarksDuplicates(t *testing.T) {
	g := graph.Chain(2, 10, 8)
	topo, _ := machine.Full(2)
	m, _ := machine.New("m", topo, machine.Params{ProcSpeed: 1, MsgStartup: 5, WordTime: 1})
	s := &sched.Schedule{Graph: g, Machine: m, Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t0", PE: 1, Start: 0, Finish: 10, Dup: true},
			{Task: "t1", PE: 1, Start: 10, Finish: 20},
		}}
	svg := SVG(s)
	if !strings.Contains(svg, "stroke-dasharray") {
		t.Error("duplicate slot not dashed in SVG")
	}
}

func TestReportBreaksDownUtilisation(t *testing.T) {
	s := demoSchedule(t)
	out := Report(s)
	for _, want := range []string{"PE   busy", "util", "mean utilisation", "processors engaged", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Row count: one line per PE plus header, summary and title.
	lines := strings.Count(out, "\n")
	if lines != s.Machine.NumPE()+3 {
		t.Errorf("report has %d lines, want %d:\n%s", lines, s.Machine.NumPE()+3, out)
	}
}
