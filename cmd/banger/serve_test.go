package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	goexec "os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/serve"
)

// TestHelperServeProcess is not a test: re-executed with
// BANGER_SERVE_HELPER=1 it becomes a real `banger serve` control
// plane in its own process (the acceptance tests' server).
func TestHelperServeProcess(t *testing.T) {
	if os.Getenv("BANGER_SERVE_HELPER") != "1" {
		t.Skip("helper process for the serve acceptance tests")
	}
	args := strings.Fields(os.Getenv("BANGER_SERVE_ARGS"))
	if err := cmdServe(args); err != nil {
		fmt.Fprintln(os.Stderr, "serve helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnServe re-executes the test binary as a serve control plane and
// returns its base URL, fleet control address ("" without fleet mode)
// and process handle.
func spawnServe(t *testing.T, args string) (string, string, *goexec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := goexec.Command(exe, "-test.run", "^TestHelperServeProcess$")
	cmd.Env = append(os.Environ(), "BANGER_SERVE_HELPER=1", "BANGER_SERVE_ARGS="+args)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})

	type banner struct{ url, control string }
	ch := make(chan banner, 1)
	go func() {
		var b banner
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "fleet control on "); ok {
				b.control = a
			}
			if a, ok := strings.CutPrefix(line, "serving on "); ok {
				b.url = a
				ch <- b
				break
			}
		}
	}()
	select {
	case b := <-ch:
		return b.url, b.control, cmd
	case <-time.After(15 * time.Second):
		t.Fatal("serve process never reported its address")
		return "", "", nil
	}
}

// batchProject writes one seeded layered-calculator project to dir.
// The seed varies both the input value and (every other seed) the task
// weights, so a batch exercises cache hits and misses.
func batchProject(t *testing.T, dir string, seed int) string {
	t.Helper()
	g := graph.New(fmt.Sprintf("batch-%d", seed))
	g.MustAddStorage("IN", "x")
	width := 3
	for i := 0; i < width; i++ {
		id := graph.NodeID(fmt.Sprintf("a%d", i))
		n := g.MustAddTask(id, string(id), int64(10+(seed%2)*5+i))
		n.Routine = fmt.Sprintf("v%d = x * %d + %d", i, i+2, seed%2)
		g.MustConnect("IN", id, "x", 1)
	}
	snk := g.MustAddTask("snk", "snk", 20)
	terms := make([]string, width)
	for i := range terms {
		terms[i] = fmt.Sprintf("v%d", i)
		g.MustConnect(graph.NodeID(fmt.Sprintf("a%d", i)), "snk", terms[i], 1)
	}
	snk.Routine = "out = " + strings.Join(terms, " + ") + "\nprint \"sum \", out"
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)

	topo, err := machine.ParseTopology("hypercube:2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New("hypercube:2", topo,
		machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &project.Project{Name: fmt.Sprintf("batch-%d", seed), Design: g, Machine: m,
		Inputs: pits.Env{"x": pits.Num(float64(seed + 1))}}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, fmt.Sprintf("batch-%d.json", seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// outputSection extracts the printed lines and the outputs block from
// a command's stdout — the part of `banger run` and `banger batch`
// output that must be byte-identical.
func outputSection(out string) []string {
	var section []string
	inOutputs := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "  > "):
			section = append(section, line)
		case line == "outputs:":
			inOutputs = true
			section = append(section, line)
		case inOutputs && strings.HasPrefix(line, "  "):
			section = append(section, line)
		case inOutputs:
			inOutputs = false
		}
	}
	return section
}

func scrapeServeStats(t *testing.T, url string) serve.StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeBatchAcceptance is the conform-style acceptance run:
// `banger batch` over seeded designs against a live `banger serve`
// fleet of real worker processes produces outputs byte-identical to
// serial `banger run`, in serial argument order, while one worker is
// SIGKILLed mid-batch and a replacement rejoins — and the server's
// /stats confirms cache traffic and a leak-free fleet.
func TestServeBatchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns server and worker processes")
	}

	const runs = 8
	dir := t.TempDir()
	projects := make([]string, runs)
	for i := range projects {
		projects[i] = batchProject(t, dir, i)
	}

	// Serial ground truth: each project through `banger run`, locally.
	serial := make([][]string, runs)
	for i, p := range projects {
		out := capture(t, func() error { return cmdRun([]string{"-project", p, "-alg", "etf"}) })
		serial[i] = outputSection(out)
		if len(serial[i]) < 3 {
			t.Fatalf("serial run %d printed no usable section:\n%s", i, out)
		}
	}

	// A live control plane in fleet mode plus two real worker daemons.
	url, control, _ := spawnServe(t,
		"-listen 127.0.0.1:0 -control 127.0.0.1:0 -alg etf -peer-timeout 2s")
	if control == "" {
		t.Fatal("serve did not report a fleet control address")
	}
	_, victim := spawnWorker(t, control)
	spawnWorker(t, control)
	waitFleetSize(t, url, 2)

	// The batch, with a mid-batch worker kill: once /stats shows
	// progress, SIGKILL one worker and announce a replacement.
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		deadline := time.Now().Add(60 * time.Second)
		for time.Now().Before(deadline) {
			if st := scrapeServeStats(t, url); st.Runs.Total >= 2 {
				victim.Process.Signal(syscall.SIGKILL)
				spawnWorker(t, control)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	args := append([]string{"-addr", url, "-j", "3", "-timeout", "120s"}, projects...)
	out := capture(t, func() error { return cmdBatch(args) })
	<-killed

	// Results appear in argument order and each section is
	// byte-identical to its serial run.
	var headers []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "== ") {
			headers = append(headers, line)
		}
	}
	if len(headers) != runs {
		t.Fatalf("batch printed %d result headers, want %d:\n%s", len(headers), runs, out)
	}
	for i, p := range projects {
		if !strings.Contains(headers[i], p) {
			t.Fatalf("header %d = %q, want project %s (serial argument order)", i, headers[i], p)
		}
	}
	sections := splitBatchSections(out)
	if len(sections) != runs {
		t.Fatalf("batch printed %d sections, want %d:\n%s", len(sections), runs, out)
	}
	for i := range projects {
		got, want := strings.Join(sections[i], "\n"), strings.Join(serial[i], "\n")
		if got != want {
			t.Errorf("project %d batch output differs from serial run:\nbatch:\n%s\nserial:\n%s",
				i, got, want)
		}
	}

	// The fleet healed: the replacement joined, and the cache saw both
	// misses (distinct shapes) and hits (repeated ones).
	waitFleetSize(t, url, 2)
	st := scrapeServeStats(t, url)
	if st.Runs.Total < runs {
		t.Fatalf("stats report %d runs, want >= %d", st.Runs.Total, runs)
	}
	if st.Cache.Misses < 2 || st.Cache.Hits < 1 {
		t.Fatalf("cache stats = %+v, want >= 2 misses and >= 1 hit", st.Cache)
	}
}

// splitBatchSections cuts batch output into per-project printed+output
// sections, in printed order.
func splitBatchSections(out string) [][]string {
	var sections [][]string
	var cur []string
	flush := func() {
		if cur != nil {
			sections = append(sections, cur)
			cur = nil
		}
	}
	inOutputs := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			flush()
			cur = []string{}
			inOutputs = false
		case cur == nil:
		case strings.HasPrefix(line, "  > "):
			cur = append(cur, line)
		case line == "outputs:":
			inOutputs = true
			cur = append(cur, line)
		case inOutputs && strings.HasPrefix(line, "  "):
			cur = append(cur, line)
		case inOutputs:
			inOutputs = false
		}
	}
	flush()
	return sections
}

// waitFleetSize polls /stats until the fleet reaches n members.
func waitFleetSize(t *testing.T, url string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if st := scrapeServeStats(t, url); st.Fleet.Size >= n {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d members", n)
}

// TestServeSmokeLocal: the CLI serve command in local (fleet-less)
// mode serves a small batch end to end, reports sane stats, and exits
// cleanly on SIGTERM — the CI smoke path without process churn.
func TestServeSmokeLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server process")
	}
	dir := t.TempDir()
	projects := []string{batchProject(t, dir, 0), batchProject(t, dir, 1), batchProject(t, dir, 0)}

	url, _, cmd := spawnServe(t, "-listen 127.0.0.1:0 -alg etf")
	// The repeated shape goes in a batch of its own: racing its twin at
	// -j 2 it can reach the scheduler before the twin is cached.
	var out string
	for _, batch := range [][]string{projects[:2], projects[2:]} {
		args := append([]string{"-addr", url, "-j", "2"}, batch...)
		out += capture(t, func() error { return cmdBatch(args) })
	}
	if got := strings.Count(out, "outputs:"); got != 3 {
		t.Fatalf("batch served %d runs, want 3:\n%s", got, out)
	}
	st := scrapeServeStats(t, url)
	if st.Runs.Total != 3 || st.Runs.Failed != 0 {
		t.Fatalf("stats = %+v", st.Runs)
	}
	if st.Cache.Hits < 1 {
		t.Fatalf("repeated shape never hit the cache: %+v", st.Cache)
	}
	if st.Goroutines <= 0 {
		t.Fatalf("stats goroutine gauge = %d", st.Goroutines)
	}

	// -predict: schedule-only round trip — a prediction line, no
	// execution output, and no new run-mode side effects on /stats.
	out = capture(t, func() error {
		return cmdBatch([]string{"-addr", url, "-predict", projects[0]})
	})
	if !strings.Contains(out, "predicted: makespan") {
		t.Fatalf("-predict printed no prediction line:\n%s", out)
	}
	if strings.Contains(out, "outputs:") {
		t.Fatalf("-predict printed execution outputs:\n%s", out)
	}

	// Graceful shutdown: SIGTERM drains and the process exits 0.
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve exited uncleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serve never exited after SIGTERM")
	}
}
