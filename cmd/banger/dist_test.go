package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"log/slog"
	"os"
	goexec "os/exec"
	"reflect"
	"sort"
	"strings"
	"sync"
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
	if a2 < a1 { // a run numbers its workers in sorted address order
		a1, c1, a2, c2 = a2, c2, a1, c1
	}
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
// replacement daemon started with -join announces itself to the fleet's
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

	// A fleet numbers its workers in sorted address order: the victim
	// is whichever process's address sorts last.
	procs := map[string]*goexec.Cmd{}
	for range 3 {
		a, c := spawnWorkerProcess(t)
		procs[a] = c
	}
	addrs := make([]string, 0, len(procs))
	for a := range procs {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	tookJoiner := make(chan struct{})
	var once sync.Once
	watchLog(t, func(r slog.Record) {
		if r.Message == "fleet: worker joined a run in flight" {
			once.Do(func() { close(tookJoiner) })
		}
	})
	f := &wire.Fleet{
		Transport: wire.TCP(), Seed: addrs, Control: "127.0.0.1:0",
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    600 * time.Millisecond,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ctrl := f.Addr()
	resCh := make(chan *exec.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
		resCh <- res
		errCh <- err
	}()

	// Kill the last worker process once the run is inside the first
	// hold. Heartbeat loss frees its processors and the recovery
	// re-executes its finished tasks, opening the capacity + busy
	// window the joiner needs.
	time.Sleep(200 * time.Millisecond)
	procs[addrs[victim]].Process.Signal(syscall.SIGKILL)

	// The replacement daemon announces itself via its own -join loop:
	// the fleet records it at once, and each announce offers it to the
	// run, which takes it in once the victim's processors are dead.
	spawnWorker(t, ctrl)
	select {
	case <-tookJoiner:
	case <-time.After(10 * time.Second):
		t.Fatal("no run took the joiner in")
	}

	// With the joiner in and the next hold armed, gracefully evacuate
	// one of the original survivors.
	time.Sleep(100 * time.Millisecond)
	dctx, dcancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer dcancel()
	for {
		err = wire.Drain(dctx, wire.TCP(), ctrl, -1, addrs[0])
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

// watchLog shows every slog record to see for the rest of the test. No
// test of this package runs in parallel, so the default logger is the
// test's own; the previous one, and the log package's output it
// replaced, come back at cleanup.
func watchLog(t *testing.T, see func(slog.Record)) {
	old, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(recordHook(see)))
	t.Cleanup(func() {
		slog.SetDefault(old)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
}

// recordHook is a slog.Handler that hands every record to a function.
type recordHook func(slog.Record)

func (h recordHook) Enabled(context.Context, slog.Level) bool { return true }
func (h recordHook) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h recordHook) WithGroup(string) slog.Handler            { return h }
func (h recordHook) Handle(_ context.Context, r slog.Record) error {
	h(r)
	return nil
}
