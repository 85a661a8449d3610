package main

import (
	"encoding/json"
	"errors"
	"os"
	goexec "os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/project"
	"repro/internal/sched"
)

// capture runs f with stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput so far:\n%s", ferr, out)
	}
	return out
}

func TestCmdList(t *testing.T) {
	out := capture(t, cmdList)
	for _, want := range []string{"lu3x3", "newton-sqrt", "stats", "mh", "dsh", "ish", "hypercube:D"} {
		if !strings.Contains(out, want) {
			t.Errorf("list missing %q:\n%s", want, out)
		}
	}
}

func TestCmdShow(t *testing.T) {
	out := capture(t, func() error { return cmdShow([]string{"-project", "lu3x3"}) })
	for _, want := range []string{"lu3x3", "<<forward>>", "expansion of <<back>>", "flattened:", "16 tasks"} {
		if !strings.Contains(out, want) {
			t.Errorf("show missing %q", want)
		}
	}
	dot := capture(t, func() error { return cmdShow([]string{"-project", "lu3x3", "-dot"}) })
	if !strings.Contains(dot, "digraph") {
		t.Error("dot output missing digraph")
	}
}

func TestCmdTopology(t *testing.T) {
	out := capture(t, func() error { return cmdTopology([]string{"mesh:2x3"}) })
	if !strings.Contains(out, "mesh-2x3") || !strings.Contains(out, "diameter 3") {
		t.Errorf("topology:\n%s", out)
	}
	if err := cmdTopology(nil); err == nil {
		t.Error("missing spec accepted")
	}
	if err := cmdTopology([]string{"bogus"}); err == nil {
		t.Error("bad spec accepted")
	}
}

func TestCmdScheduleAndOutputs(t *testing.T) {
	out := capture(t, func() error { return cmdSchedule([]string{"-project", "lu3x3", "-alg", "dsh"}) })
	for _, want := range []string{"dsh on", "PE0", "messages carrying", "utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("schedule missing %q:\n%s", want, out)
		}
	}
	csv := capture(t, func() error { return cmdSchedule([]string{"-project", "lu3x3", "-csv"}) })
	if !strings.HasPrefix(csv, "task,pe,start_us") {
		t.Errorf("csv header: %.60q", csv)
	}
	svgPath := filepath.Join(t.TempDir(), "chart.svg")
	capture(t, func() error { return cmdSchedule([]string{"-project", "lu3x3", "-svg", svgPath}) })
	data, err := os.ReadFile(svgPath)
	if err != nil || !strings.HasPrefix(string(data), "<svg") {
		t.Errorf("svg file: %v", err)
	}
	// Machine override.
	out = capture(t, func() error {
		return cmdSchedule([]string{"-project", "lu3x3", "-machine", "star:5"})
	})
	if !strings.Contains(out, "star-5") {
		t.Errorf("machine override ignored:\n%s", out)
	}
}

func TestCmdSpeedup(t *testing.T) {
	out := capture(t, func() error {
		return cmdSpeedup([]string{"-project", "lu3x3", "-dims", "0,1,2"})
	})
	for _, want := range []string{"speedup vs processors", "1 PE", "4 PE"} {
		if !strings.Contains(out, want) {
			t.Errorf("speedup missing %q", want)
		}
	}
	if err := cmdSpeedup([]string{"-dims", "x"}); err == nil {
		t.Error("bad dims accepted")
	}
}

func TestCmdSimulateAnimateRehearseRun(t *testing.T) {
	sim := capture(t, func() error { return cmdSimulate([]string{"-project", "lu3x3", "-alg", "etf"}) })
	if !strings.Contains(sim, "simulated:") || !strings.Contains(sim, "utilization") {
		t.Errorf("simulate:\n%s", sim)
	}
	anim := capture(t, func() error { return cmdAnimate([]string{"-project", "lu3x3", "-frames", "4"}) })
	if !strings.Contains(anim, "frame 4") || !strings.Contains(anim, "done 16/16") {
		t.Errorf("animate:\n%s", anim)
	}
	reh := capture(t, func() error { return cmdRehearse([]string{"-project", "lu3x3"}) })
	if !strings.Contains(reh, "rehearsed 16 tasks") || !strings.Contains(reh, "x = [1, 2, 3]") {
		t.Errorf("rehearse:\n%s", reh)
	}
	run := capture(t, func() error { return cmdRun([]string{"-project", "lu3x3", "-alg", "mh"}) })
	if !strings.Contains(run, "ran 16 tasks") || !strings.Contains(run, "x = [1, 2, 3]") {
		t.Errorf("run:\n%s", run)
	}
}

func TestCmdCalc(t *testing.T) {
	out := capture(t, func() error {
		return cmdCalc([]string{"-project", "newton-sqrt", "-task", "sqrt"})
	})
	for _, want := range []string{"Task: sqrt", "PROGRAM", "DISPLAY", "1.414213562"} {
		if !strings.Contains(out, want) {
			t.Errorf("calc missing %q:\n%s", want, out)
		}
	}
}

func TestCmdCodegen(t *testing.T) {
	out := capture(t, func() error { return cmdCodegen([]string{"-project", "lu3x3"}) })
	if !strings.Contains(out, "package main") {
		t.Error("codegen stdout missing program")
	}
	file := filepath.Join(t.TempDir(), "gen.go")
	capture(t, func() error { return cmdCodegen([]string{"-project", "lu3x3", "-o", file}) })
	if data, err := os.ReadFile(file); err != nil || !strings.Contains(string(data), "func main()") {
		t.Errorf("codegen file: %v", err)
	}
}

func TestCmdDemo(t *testing.T) {
	out := capture(t, func() error { return cmdDemo(nil) })
	for _, want := range []string{"Step 1", "Step 5", "x = [1, 2, 3]"} {
		if !strings.Contains(out, want) {
			t.Errorf("demo missing %q", want)
		}
	}
}

func TestLoadProjectFromFile(t *testing.T) {
	p, err := project.NewtonSqrt()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "proj.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := loadProject(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "newton-sqrt" {
		t.Errorf("loaded %q", loaded.Name)
	}
	if _, err := loadProject("/no/such/file.json"); err == nil {
		t.Error("missing file accepted")
	}
	garbage := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(garbage, []byte("{nope"), 0o644)
	if _, err := loadProject(garbage); err == nil {
		t.Error("garbage json accepted")
	}
}

func TestCmdScheduleJSONExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	capture(t, func() error { return cmdSchedule([]string{"-project", "lu3x3", "-json", path}) })
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sc sched.Schedule
	if err := json.Unmarshal(data, &sc); err != nil {
		t.Fatalf("exported schedule does not load: %v", err)
	}
	if sc.Algorithm != "mh" || len(sc.Slots) != 16 {
		t.Errorf("loaded %s with %d slots", sc.Algorithm, len(sc.Slots))
	}
}

// TestHelperMain is not a test: re-executed with BANGER_MAIN_ARGS set
// it becomes the banger CLI itself, so exits out of flag parsing can be
// observed from the parent.
func TestHelperMain(t *testing.T) {
	args, ok := os.LookupEnv("BANGER_MAIN_ARGS")
	if !ok {
		t.Skip("helper process for the CLI exit tests")
	}
	os.Args = append([]string{"banger"}, strings.Fields(args)...)
	main()
	os.Exit(0)
}

// bangerMain runs the CLI with the given argument line in a helper
// process and returns its combined output and exit error.
func bangerMain(t *testing.T, args string) ([]byte, error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := goexec.Command(exe, "-test.run", "^TestHelperMain$")
	cmd.Env = append(os.Environ(), "BANGER_MAIN_ARGS="+args)
	return cmd.CombinedOutput()
}

// wantUnknownFlag requires flag parsing to refuse `banger sub args`:
// exit status 2, the "not defined" message for name and sub's usage
// text.
func wantUnknownFlag(t *testing.T, sub, name, args string) {
	t.Helper()
	out, err := bangerMain(t, sub+" "+args)
	var ee *goexec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("%s %s: err %v, want exit status 2\n%s", sub, args, err, out)
	}
	for _, want := range []string{"flag provided but not defined: " + name, "Usage of " + sub} {
		if !strings.Contains(string(out), want) {
			t.Errorf("%s %s: output lacks %q:\n%s", sub, args, want, out)
		}
	}
}

// TestMeshFlagRemoved: the mesh is the only data plane, so `-mesh` is
// not a flag any more — passing it fails flag parsing with the usage
// text instead of being silently ignored.
func TestMeshFlagRemoved(t *testing.T) {
	for _, sub := range []string{"run", "serve"} {
		wantUnknownFlag(t, sub, "-mesh", "-mesh=false")
	}
}

// TestWatchdogFlagsRemoved: a hung run is decided by counting, not by a
// per-receive timer, so the timer's knobs `run -grace` and `serve
// -watchdog-min` are refused rather than ignored.
func TestWatchdogFlagsRemoved(t *testing.T) {
	wantUnknownFlag(t, "run", "-grace", "-grace 2")
	wantUnknownFlag(t, "serve", "-watchdog-min", "-watchdog-min 5s")
}

// TestTuningFlagsRemoved: schedule construction is serial and the
// frame-coalescing window is a constant, so `-workers` and
// `-flush-interval` are refused rather than ignored, and the help text
// no longer offers them.
func TestTuningFlagsRemoved(t *testing.T) {
	wantUnknownFlag(t, "schedule", "-workers", "-project lu3x3 -workers 2")
	wantUnknownFlag(t, "serve", "-workers", "-workers 2")
	wantUnknownFlag(t, "run", "-flush-interval", "-project lu3x3 -flush-interval 1ms")
	wantUnknownFlag(t, "serve", "-flush-interval", "-flush-interval 1ms")

	out, err := bangerMain(t, "help")
	if err != nil || !strings.Contains(string(out), "usage: banger") {
		t.Fatalf("help: err %v, output:\n%s", err, out)
	}
	for _, gone := range []string{"[-workers N]", "-flush-interval"} {
		if strings.Contains(string(out), gone) {
			t.Errorf("help still offers %q", gone)
		}
	}
}
