package wire

import (
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// distDesign builds a layered design with real routines and printed
// output: layers*width compute tasks plus a printing sink.
func distDesign(t testing.TB, layers, width int) (*graph.Flat, pits.Env) {
	t.Helper()
	g := graph.New("dist-calc")
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

func distMachine(t testing.TB, spec string) *machine.Machine {
	t.Helper()
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(spec, topo, machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// startWorkers launches n in-process worker daemons on one inproc
// transport namespace and returns their addresses plus a shutdown
// function that waits for them to exit.
func startWorkers(t *testing.T, tr Transport, n int) ([]string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addrs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		addrs[i] = fmt.Sprintf("worker-%d", i)
		ready := make(chan struct{})
		wg.Add(1)
		go func(addr string) {
			defer wg.Done()
			if err := ServeWorker(ctx, tr, addr, WorkerOptions{}, func(string) { close(ready) }); err != nil {
				t.Errorf("worker %s: %v", addr, err)
			}
		}(addrs[i])
		select {
		case <-ready:
		case <-time.After(5 * time.Second):
			t.Fatalf("worker %d never came up", i)
		}
	}
	return addrs, func() {
		cancel()
		wg.Wait()
	}
}

// TestDistEquivalence: a run distributed over worker daemons produces
// byte-identical outputs and printed lines to the single-process
// runner.
func TestDistEquivalence(t *testing.T) {
	flat, inputs := distDesign(t, 4, 3)
	for _, tc := range []struct {
		mspec   string
		workers int
	}{
		{"hypercube:2", 2},
		{"hypercube:3", 3},
		{"star:4", 2},
	} {
		t.Run(fmt.Sprintf("%s-%dw", tc.mspec, tc.workers), func(t *testing.T) {
			m := distMachine(t, tc.mspec)
			sc, err := sched.ETF{}.Schedule(flat.Graph, m)
			if err != nil {
				t.Fatal(err)
			}
			single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
			if err != nil {
				t.Fatal(err)
			}

			tr := Inproc()
			addrs, stop := startWorkers(t, tr, tc.workers)
			defer stop()
			co := &Coordinator{
				Transport: tr, Addrs: addrs,
				Runner:         &exec.Runner{Inputs: inputs},
				HeartbeatEvery: 50 * time.Millisecond,
				PeerTimeout:    2 * time.Second,
			}
			dist, err := co.Run(context.Background(), sc, flat)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
				t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
			}
			if !reflect.DeepEqual(dist.Printed, single.Printed) {
				t.Errorf("printed lines diverged:\n dist   %q\n single %q", dist.Printed, single.Printed)
			}

			st, err := dist.Trace.Summarize(m.NumPE())
			if err != nil {
				t.Fatal(err)
			}
			if st.Peers != tc.workers {
				t.Errorf("trace records %d peers, want %d", st.Peers, tc.workers)
			}
			if st.WireBytes == 0 {
				t.Error("trace records no wire bytes")
			}
		})
	}
}

// TestDistCrashRecovery: an injected processor crash on one worker
// drives the global pause/replan/resume path and the run still produces
// the fault-free outputs.
func TestDistCrashRecovery(t *testing.T) {
	flat, inputs := distDesign(t, 4, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	// Crash a processor that actually has work, partway into its slot
	// list, so surviving results and replanned work both exist.
	crashPE, slots := -1, 0
	for pe := 0; pe < m.NumPE(); pe++ {
		n := 0
		for _, sl := range sc.Slots {
			if sl.PE == pe {
				n++
			}
		}
		if n > slots {
			crashPE, slots = pe, n
		}
	}
	if crashPE < 0 || slots < 2 {
		t.Fatal("schedule has no busy processor to crash")
	}
	plan, err := exec.ParseFaults(fmt.Sprintf("crash:%d@1", crashPE))
	if err != nil {
		t.Fatal(err)
	}

	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	co := &Coordinator{
		Transport: tr, Addrs: addrs,
		Runner: &exec.Runner{Inputs: inputs, Faults: plan, Stats: &exec.Stats{},
			Retry: true},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    2 * time.Second,
	}
	dist, err := co.Run(context.Background(), sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	// The recovery is the coordinator's lifecycle's doing, counted with
	// the run.
	if got := co.Runner.Stats.Snapshot().Recoveries; got != 1 {
		t.Errorf("Runner.Stats.Recoveries = %d after one crash recovery, want 1", got)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged after crash recovery:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after crash recovery:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	st, err := dist.Trace.Summarize(m.NumPE())
	if err != nil {
		t.Fatal(err)
	}
	if st.Faults == 0 {
		t.Error("trace records no injected fault")
	}
	if st.Rescheduled == 0 {
		t.Error("crash recovery recorded no rescheduled tasks")
	}
}

// TestDistWorkerLost: a worker daemon that dies mid-run is declared
// dead by heartbeat loss and the run completes on the survivors with
// the fault-free outputs.
//
// The dying worker also takes its mesh links down, so the survivors
// must fall back to the coordinator for replayed sends.
func TestDistWorkerLost(t *testing.T) {
	logged := captureLog(t, nil)
	flat, inputs := distDesign(t, 6, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	// Wall-clock runs of this design finish in milliseconds — too fast
	// for a mid-run kill. Hold the run open with a wall-time delay
	// fault on a message that crosses the two worker blocks, and kill
	// the worker hosting the consumer while it waits. The blocks come
	// from the same traffic-aware placement the coordinator uses.
	workerOf := sched.Place(sc, 2)
	victim := -1
	var spec string
	for _, msg := range sc.Msgs {
		if workerOf[msg.FromPE] != workerOf[msg.ToPE] {
			victim = workerOf[msg.ToPE]
			spec = fmt.Sprintf("delay:%s->%s:%s@1500000", msg.From, msg.To, msg.Var)
			break
		}
	}
	if victim < 0 {
		t.Skip("schedule has no cross-worker message to delay")
	}
	plan, err := exec.ParseFaults(spec)
	if err != nil {
		t.Fatal(err)
	}

	tr := Inproc()
	// The survivor runs under the shared shutdown; the victim gets a
	// private context so the test can kill it mid-run.
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	ready := make(chan struct{})
	victimDone := make(chan struct{})
	go func() {
		defer close(victimDone)
		ServeWorker(victimCtx, tr, "victim", WorkerOptions{}, func(string) { close(ready) })
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatal("victim worker never came up")
	}
	// Place the victim dameon at the worker index hosting the delayed
	// message's consumer.
	if victim == 0 {
		addrs = []string{"victim", addrs[0]}
	} else {
		addrs = append(addrs, "victim")
	}

	go func() {
		time.Sleep(300 * time.Millisecond)
		killVictim()
	}()

	co := &Coordinator{
		Transport: tr, Addrs: addrs,
		Runner:         &exec.Runner{Inputs: inputs, Faults: plan},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    400 * time.Millisecond,
	}
	dist, err := co.Run(context.Background(), sc, flat)
	<-victimDone
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged after losing a worker:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after losing a worker:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	lost := 0
	for _, e := range dist.Trace.Events {
		if e.Kind == trace.PeerLost {
			lost++
		}
	}
	if lost == 0 {
		t.Error("trace records no lost peer")
	}
	// The coordinator's side of the loss is Warn records naming the run
	// and the worker.
	warned := 0
	for _, r := range logged.records() {
		_, numbered := r.Attrs["worker"]
		if r.Level == slog.LevelWarn && r.Attrs["run"].String() != "" && numbered && r.Attrs["addr"].String() == "victim" {
			warned++
		}
	}
	if warned == 0 {
		t.Errorf("no Warn record names the run and the lost worker: %v", logged.records())
	}
}

// TestCoordinatorCalibrate measures wire latency against a live worker
// and yields a usable machine calibration.
func TestCoordinatorCalibrate(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	cal, err := Calibrate(ctx, tr, addrs[0], 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Validate(); err != nil {
		t.Fatalf("calibration invalid: %v", err)
	}
	m := distMachine(t, "hypercube:2")
	cm, err := m.Calibrated(cal)
	if err != nil {
		t.Fatal(err)
	}
	if cm.NumPE() != m.NumPE() {
		t.Errorf("calibrated machine changed size: %d != %d", cm.NumPE(), m.NumPE())
	}
}

// TestDistLostMessageIsReportedAsDeadlock: a message dropped on a
// cross-worker edge, with no retry and no timer anywhere, comes back
// from a fleet run as the very error an in-process run of the same case
// gives — within 100 ms, and leaving no run behind on the daemons. The
// edge dropped feeds the sink, so the sending worker goes idle and only
// the sink's worker reports a processor waiting: the run is called from
// both members' counts.
func TestDistLostMessageIsReportedAsDeadlock(t *testing.T) {
	flat, inputs := distDesign(t, 4, 3)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:2"))
	if err != nil {
		t.Fatal(err)
	}
	workerOf := sched.Place(sc, 2)
	var lost *sched.Msg
	for i, msg := range sc.Msgs {
		if msg.To == "snk" && workerOf[msg.FromPE] != workerOf[msg.ToPE] {
			lost = &sc.Msgs[i]
			break
		}
	}
	if lost == nil {
		t.Fatal("schedule has no cross-worker message into the sink to drop")
	}
	edge := fmt.Sprintf("%s->%s:%s", lost.From, lost.To, lost.Var)
	plan, err := exec.ParseFaults("drop:" + edge)
	if err != nil {
		t.Fatal(err)
	}
	_, want := (&exec.Runner{Inputs: inputs, Faults: plan}).Run(sc, flat)
	line := fmt.Sprintf("PE %d waits for %s from PE %d", lost.ToPE, edge, lost.FromPE)
	if want == nil || !strings.HasPrefix(want.Error(), "exec: run deadlocked: ") || !strings.Contains(want.Error(), line) {
		t.Fatalf("in-process run: %v, want a deadlock naming %q", want, line)
	}

	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	f := startFleet(t, tr, addrs)
	start := time.Now()
	_, err = f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("run returned after %v, want within 100ms", took)
	}
	if err == nil || err.Error() != want.Error() {
		t.Errorf("fleet run: %v\nwant the in-process error: %v", err, want)
	}
	waitNoWorkerRuns(t, 5*time.Second)
}

// slowMiddle is a -> s -> b over two processors: a and b on PE 1, s on
// PE 0, counting n times.
func slowMiddle(t *testing.T, n int) (*sched.Schedule, *graph.Flat) {
	t.Helper()
	g := graph.New("slow-middle")
	g.MustAddStorage("X", "x")
	g.MustAddTask("a", "a", 10).Routine = "u = x + 1"
	g.MustAddTask("s", "s", 10).Routine = fmt.Sprintf("w = u\nrepeat %d do\n  w = w + 1\nend", n)
	g.MustAddTask("b", "b", 10).Routine = "out = w * 2"
	g.MustAddStorage("OUT", "out")
	g.MustConnect("X", "a", "x", 1)
	g.MustConnect("a", "s", "u", 1)
	g.MustConnect("s", "b", "w", 1)
	g.MustConnect("b", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc := &sched.Schedule{
		Graph: flat.Graph, Machine: distMachine(t, "full:2"), Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 1, Start: 0, Finish: 11},
			{Task: "s", PE: 0, Start: 17, Finish: 28},
			{Task: "b", PE: 1, Start: 34, Finish: 45},
		},
		Msgs: []sched.Msg{
			{Var: "u", From: "a", To: "s", FromPE: 1, ToPE: 0, Words: 1, Send: 11, Recv: 17, Hops: 1},
			{Var: "w", From: "s", To: "b", FromPE: 0, ToPE: 1, Words: 1, Send: 28, Recv: 34, Hops: 1},
		},
	}
	sc.Finalize()
	return sc, flat
}

// spanOf is how long task id ran in tr.
func spanOf(tr *trace.Trace, id graph.NodeID) time.Duration {
	var span machine.Time
	for _, ev := range tr.Events {
		switch {
		case ev.Task == id && ev.Kind == trace.TaskStart:
			span -= ev.At
		case ev.Task == id && ev.Kind == trace.TaskEnd:
			span += ev.At
		}
	}
	return time.Duration(span) * time.Microsecond
}

// TestDistSlowMemberIsNotDeadlocked: the member hosting PE 0 spends at
// least 2 s in s while the other, its PE 1 waiting on s's result, is
// quiet; earlier the first was quiet too, waiting on a's. Both members
// report a processor waiting, but never with as many copies taken in as
// handed out, so nothing is probed and the run completes with the
// outputs s computes. No timer decides it either way.
func TestDistSlowMemberIsNotDeadlocked(t *testing.T) {
	inputs := pits.Env{"x": pits.Num(4)}
	const slow = 2 * time.Second
	// How long s counts depends on the host: count until it takes a
	// while in process, then ask for enough to last 2 s and a margin.
	n := 1 << 14
	for {
		sc, flat := slowMiddle(t, n)
		res, err := (&exec.Runner{Inputs: inputs, MaxSteps: 1 << 40}).Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		if d := spanOf(res.Trace, "s"); d >= 50*time.Millisecond {
			n = int(float64(n) * float64(slow+slow/4) / float64(d))
			break
		}
		n *= 2
	}
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	f := startFleet(t, tr, addrs)
	for try := 0; ; try++ {
		sc, flat := slowMiddle(t, n)
		res, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, MaxSteps: 1 << 40}, sc, flat)
		if err != nil {
			t.Fatalf("a slow member was taken for a deadlock: %v", err)
		}
		if want := pits.Num(float64(2 * (4 + 1 + n))); res.Outputs["out"] != want {
			t.Fatalf("out = %v, want %v", res.Outputs["out"], want)
		}
		if d := spanOf(res.Trace, "s"); d >= slow {
			t.Logf("s ran %v on its member", d)
			return
		} else if try == 2 {
			t.Fatalf("s ran only %v on its member, want at least %v", d, slow)
		}
		n *= 2
	}
}

// noPeerDials is a transport on which worker-to-worker dials never
// succeed — workers behind NAT, say: each can listen and be reached by
// the coordinator, but none can reach another.
type noPeerDials struct{ Transport }

func (noPeerDials) Dial(context.Context, string) (Conn, error) {
	return nil, fmt.Errorf("no route between workers")
}

// dataCounting counts the data frames written on the connections it
// dials: given to the coordinator, that is exactly the frames the
// coordinator forwards on behalf of workers whose mesh link is down.
type dataCounting struct {
	Transport
	n *atomic.Int64
}

func (t dataCounting) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return dataCountingConn{c, t.n}, nil
}

type dataCountingConn struct {
	Conn
	n *atomic.Int64
}

func (c dataCountingConn) WriteFrame(f Frame) error {
	if f.Type == TData {
		c.n.Add(1)
	}
	return c.Conn.WriteFrame(f)
}

func (c dataCountingConn) WriteFrameBuffered(f Frame) error {
	if f.Type == TData {
		c.n.Add(1)
	}
	return c.Conn.WriteFrameBuffered(f)
}

// TestDistRelayFallback: when no mesh link can come up, every
// cross-worker message reaches its consumer through the coordinator
// instead, and the run is none the wiser — outputs and print lines are
// those of the single-process run. This is the per-link fallback the
// mesh always had, exercised for a whole run: the forwarding path in
// coRun.handleFrame stays covered without a relay mode to select it.
func TestDistRelayFallback(t *testing.T) {
	flat, inputs := distDesign(t, 4, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	workerOf := sched.Place(sc, 2)
	crossing := 0
	for _, msg := range sc.Msgs {
		if workerOf[msg.FromPE] != workerOf[msg.ToPE] {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("schedule has no cross-worker message to forward")
	}

	tr := Inproc()
	addrs, stop := startWorkers(t, noPeerDials{tr}, 2)
	defer stop()
	var forwarded atomic.Int64
	co := &Coordinator{
		Transport: dataCounting{tr, &forwarded}, Addrs: addrs,
		Runner:         &exec.Runner{Inputs: inputs},
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    2 * time.Second,
	}
	dist, err := co.Run(context.Background(), sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	if got := forwarded.Load(); got != int64(crossing) {
		t.Errorf("coordinator forwarded %d data frames, want all %d cross-worker messages", got, crossing)
	}
}
