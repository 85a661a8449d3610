package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	goexec "os/exec"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestHelperWorkerProcess is not a test: re-executed by the integration
// tests below with BANGER_WORKER_HELPER=1 it becomes a real `banger
// worker` daemon in its own process.
func TestHelperWorkerProcess(t *testing.T) {
	if os.Getenv("BANGER_WORKER_HELPER") != "1" {
		t.Skip("helper process for the dist integration tests")
	}
	args := []string{"-listen", "127.0.0.1:0"}
	if join := os.Getenv("BANGER_WORKER_JOIN"); join != "" {
		// Keep the announce loop's log lines: rejections explain a
		// joiner that never enters the run.
		args = append(args, "-join", join)
	} else {
		args = append(args, "-quiet")
	}
	if err := cmdWorker(args); err != nil {
		fmt.Fprintln(os.Stderr, "worker helper:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// spawnWorkerProcess re-executes the test binary as a worker daemon and
// returns its loopback address and process handle.
func spawnWorkerProcess(t *testing.T) (string, *goexec.Cmd) {
	return spawnWorker(t, "")
}

// spawnWorker is spawnWorkerProcess with an optional -join control
// address: the daemon announces itself to a running coordinator.
func spawnWorker(t *testing.T, join string) (string, *goexec.Cmd) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := goexec.Command(exe, "-test.run", "^TestHelperWorkerProcess$")
	cmd.Env = append(os.Environ(), "BANGER_WORKER_HELPER=1")
	if join != "" {
		cmd.Env = append(cmd.Env, "BANGER_WORKER_JOIN="+join)
	}
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

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				addrCh <- a
				break
			}
		}
	}()
	select {
	case addr := <-addrCh:
		return addr, cmd
	case <-time.After(10 * time.Second):
		t.Fatal("worker process never reported its address")
		return "", nil
	}
}

// luBaseline runs the LU project single-process and returns the
// environment, schedule and fault-free result.
func luBaseline(t *testing.T) (*core.Environment, *exec.Result) {
	t.Helper()
	env, err := core.OpenBuiltin("lu3x3")
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
	return env, res
}

// TestDistProcessLU: the paper's LU example distributed over two real
// worker processes on loopback TCP produces byte-identical outputs to
// the single-process runner.
func TestDistProcessLU(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, single := luBaseline(t)
	sc, err := env.Schedule("etf")
	if err != nil {
		t.Fatal(err)
	}

	a1, _ := spawnWorkerProcess(t)
	a2, _ := spawnWorkerProcess(t)
	co := &wire.Coordinator{
		Transport: wire.TCP(), Addrs: []string{a1, a2},
		Runner:         &exec.Runner{Inputs: env.Project.Inputs},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    3 * time.Second,
		Logf:           t.Logf,
	}
	dist, err := co.Run(context.Background(), sc, env.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	// The textual rendering the CLI prints must match byte for byte.
	render := func(r *exec.Result) string {
		var b strings.Builder
		old := os.Stdout
		pr, pw, _ := os.Pipe()
		os.Stdout = pw
		printOutputs(r.Outputs)
		pw.Close()
		os.Stdout = old
		buf := make([]byte, 1<<16)
		n, _ := pr.Read(buf)
		b.Write(buf[:n])
		return b.String()
	}
	if d, s := render(dist), render(single); d != s {
		t.Errorf("rendered outputs diverged:\n dist:\n%s single:\n%s", d, s)
	}
}

// TestDistProcessKillWorker: SIGKILLing one worker process mid-run
// triggers heartbeat-loss recovery and the run completes on the
// survivor with the fault-free outputs.
func TestDistProcessKillWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	env, single := luBaseline(t)
	sc, err := env.Schedule("etf")
	if err != nil {
		t.Fatal(err)
	}

	// Hold the run open with a wall-time delay on a message crossing
	// the two worker blocks, so the kill lands mid-run while the
	// consumer's worker is waiting.
	// The PE blocks come from the same traffic-aware placement the
	// coordinator uses, so the delayed edge really crosses processes.
	workerOf := sched.Place(sc, 2)
	victim := -1
	var spec string
	for _, msg := range sc.Msgs {
		if workerOf[msg.FromPE] != workerOf[msg.ToPE] {
			victim = workerOf[msg.ToPE]
			spec = fmt.Sprintf("delay:%s->%s:%s@2000000", msg.From, msg.To, msg.Var)
			break
		}
	}
	if victim < 0 {
		t.Skip("LU schedule has no cross-worker message to delay")
	}
	plan, err := exec.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}

	a1, c1 := spawnWorkerProcess(t)
	a2, c2 := spawnWorkerProcess(t)
	addrs := []string{a1, a2}
	victimCmd := []*goexec.Cmd{c1, c2}[victim]

	go func() {
		time.Sleep(400 * time.Millisecond)
		victimCmd.Process.Signal(syscall.SIGKILL)
	}()

	co := &wire.Coordinator{
		Transport: wire.TCP(), Addrs: addrs,
		Runner:         &exec.Runner{Inputs: env.Project.Inputs, Faults: plan},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    600 * time.Millisecond,
		Logf:           t.Logf,
	}
	dist, err := co.Run(context.Background(), sc, env.Flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged after losing a worker:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after losing a worker:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	lost, rescheduled := 0, 0
	for _, e := range dist.Trace.Events {
		switch e.Kind {
		case trace.PeerLost:
			lost++
		case trace.TaskRescheduled:
			rescheduled++
		}
	}
	if lost == 0 {
		t.Error("trace records no lost worker")
	}
	if rescheduled == 0 {
		t.Error("recovery rescheduled no tasks")
	}
}

// elasticDesign builds a layered design with real routines and printed
// output, the same shape the wire-level elastic tests use: every layer
// mixes neighbouring columns, so downstream cross-worker messages exist
// at every depth.
func elasticDesign(t *testing.T, layers, width int) (*graph.Flat, pits.Env) {
	t.Helper()
	g := graph.New("elastic-calc")
	g.MustAddStorage("IN", "x")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
			n := g.MustAddTask(id, string(id), int64(10+(l*7+i*3)%20))
			v := fmt.Sprintf("v%d_%d", l, i)
			if l == 0 {
				n.Routine = fmt.Sprintf("%s = x + %d", v, i)
				g.MustConnect("IN", id, "x", 1)
				continue
			}
			left := fmt.Sprintf("v%d_%d", l-1, i)
			right := fmt.Sprintf("v%d_%d", l-1, (i+1)%width)
			n.Routine = fmt.Sprintf("%s = %s + %s * 2", v, left, right)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, i)), id, left, 1)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, (i+1)%width)), id, right, 1)
		}
	}
	snk := g.MustAddTask("snk", "sink", 20)
	terms := make([]string, width)
	for i := 0; i < width; i++ {
		terms[i] = fmt.Sprintf("v%d_%d", layers-1, i)
		g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", layers-1, i)), "snk", terms[i], 1)
	}
	snk.Routine = "out = " + strings.Join(terms, " + ") + "\nprint \"total \", out"
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat, pits.Env{"x": pits.Num(3)}
}

// holdChain builds n wall-clock delay faults on cross-worker edges at
// increasing depths of the layered design, each downstream of the
// previous hold's consumer. A pause/resume barrier re-sends held
// messages immediately (resends bypass fault injection), so a single
// hold dies at the first barrier; a chain arms its next hold only
// after the previous one releases, keeping the run open across a whole
// churn sequence. The worker in avoid is excluded from the endpoints:
// once its share migrates, an edge it hosted may become worker-local,
// and local deliveries do not pass through the fault injector.
func holdChain(t *testing.T, sc *sched.Schedule, workers, n int, usec int64, avoid int) *exec.FaultPlan {
	t.Helper()
	workerOf := sched.Place(sc, workers)
	parse := func(id string) (layer, idx int, ok bool) {
		_, err := fmt.Sscanf(id, "t%d_%d", &layer, &idx)
		return layer, idx, err == nil
	}
	type cand struct {
		msg            sched.Msg
		fl, fi, tl, ti int
		sink           bool
	}
	var cands []cand
	width := 0
	for _, m := range sc.Msgs {
		fw, tw := workerOf[m.FromPE], workerOf[m.ToPE]
		if fw == tw || fw == avoid || tw == avoid {
			continue
		}
		fl, fi, ok := parse(string(m.From))
		if !ok {
			continue
		}
		if fi+1 > width {
			width = fi + 1
		}
		c := cand{msg: m, fl: fl, fi: fi}
		if tl, ti, ok := parse(string(m.To)); ok {
			c.tl, c.ti = tl, ti
		} else if string(m.To) == "snk" {
			c.sink = true
		} else {
			continue
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.fl != b.fl {
			return a.fl < b.fl
		}
		if a.msg.From != b.msg.From {
			return a.msg.From < b.msg.From
		}
		return a.msg.To < b.msg.To
	})
	plan := &exec.FaultPlan{}
	// prev is the consumer of the last accepted hold; a candidate joins
	// the chain only if its producer is (transitively) downstream: the
	// dependency cone of t(l)_c at layer l' spans indices c..c+(l'-l).
	prevSet, prevSink := false, false
	var cl, ci int
	for _, c := range cands {
		if len(plan.Faults) == n {
			break
		}
		if prevSink {
			break // nothing is downstream of the sink
		}
		if prevSet {
			if c.fl < cl || (c.fi-ci)%width < 0 || (c.fi-ci+width)%width > c.fl-cl {
				continue
			}
		}
		plan.Faults = append(plan.Faults, exec.Fault{Kind: exec.FaultDelay,
			From: c.msg.From, To: c.msg.To, Var: c.msg.Var, Delay: machine.Time(usec)})
		prevSet, prevSink, cl, ci = true, c.sink, c.tl, c.ti
	}
	if len(plan.Faults) < n {
		t.Skipf("schedule yields only %d of %d chained cross-worker holds", len(plan.Faults), n)
	}
	return plan
}

// TestDistProcessChurn drives the full elastic-fleet CLI surface over
// real processes in one run: a worker process is SIGKILLed mid-run, a
// replacement daemon started with -join announces itself to the run's
// control address and rides in during the recovery's busy window, and
// `banger drain` (the wire.Drain call it wraps) then evacuates one of
// the original survivors. Outputs must match the undisturbed
// single-process run, and exactly one departure — the kill — may look
// like a crash.
func TestDistProcessChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	// The built-in designs place too well for this test: after the
	// traffic-aware placement their schedules have no chain of
	// cross-worker messages at increasing depths. An eight-layer
	// stencil yields exactly the three chained holds the churn needs.
	flat, inputs := elasticDesign(t, 8, 3)
	topo, err := machine.ParseTopology("hypercube:3")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New("hypercube:3", topo, machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	// Three holds: one per fleet change (kill recovery, join, drain),
	// each arming only after the previous barrier releases its
	// predecessor. The delayed edges run between the two survivors so
	// the victim's death cannot release them early.
	const victim = 2
	plan := holdChain(t, sc, 3, 3, 1200000, victim)

	a1, _ := spawnWorkerProcess(t)
	a2, _ := spawnWorkerProcess(t)
	a3, c3 := spawnWorkerProcess(t)
	ctrlCh := make(chan string, 1)
	co := &wire.Coordinator{
		Transport: wire.TCP(), Addrs: []string{a1, a2, a3},
		Runner:         &exec.Runner{Inputs: inputs, Faults: plan},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    600 * time.Millisecond,
		Control:        "127.0.0.1:0",
		ControlReady:   func(addr string) { ctrlCh <- addr },
		Logf:           t.Logf,
	}
	resCh := make(chan *exec.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := co.Run(context.Background(), sc, flat)
		resCh <- res
		errCh <- err
	}()
	var ctrl string
	select {
	case ctrl = <-ctrlCh:
	case <-time.After(5 * time.Second):
		t.Fatal("control listener never came up")
	}

	// Kill the third worker process once the run is inside the first
	// hold. Heartbeat loss frees its processors and the recovery
	// re-executes its finished tasks, opening the capacity + busy
	// window the joiner needs.
	time.Sleep(200 * time.Millisecond)
	c3.Process.Signal(syscall.SIGKILL)

	// The replacement daemon announces itself via its own -join loop.
	// Poll the same control endpoint from the test until an announce
	// for its address is accepted: announcing a worker that is already
	// part of the run is an idempotent welcome, so whichever loop lands
	// first, a nil here means the join has happened.
	ja, _ := spawnWorker(t, ctrl)
	deadline := time.Now().Add(10 * time.Second)
	for {
		actx, acancel := context.WithTimeout(context.Background(), time.Second)
		err = wire.Announce(actx, wire.TCP(), ctrl, ja)
		acancel()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join never accepted: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// With the joiner in and the next hold armed, gracefully evacuate
	// one of the original survivors.
	time.Sleep(100 * time.Millisecond)
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	for {
		err = wire.Drain(dctx, wire.TCP(), ctrl, 0, "")
		if err == nil || !strings.Contains(err.Error(), "retry") {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	dist := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	drained, joined, lost := 0, 0, 0
	for _, e := range dist.Trace.Events {
		switch {
		case e.Kind == trace.WorkerDrained:
			drained++
		case e.Kind == trace.PeerConnected && e.Note == "join":
			joined++
		case e.Kind == trace.PeerLost:
			lost++
		}
	}
	if drained == 0 {
		t.Error("trace records no drained worker")
	}
	if joined == 0 {
		t.Error("trace records no mid-run join")
	}
	if lost != 1 {
		t.Errorf("trace records %d lost peers, want exactly 1 (the kill); join and drain must not look like crashes", lost)
	}
}
