package wire

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

// waitNoWorkerRuns polls until every worker daemon in the process has
// emptied its session table. Teardown is asynchronous on the worker
// side (a TBye lands after the coordinator returns), so results-in-hand
// does not yet mean tables-empty.
func waitNoWorkerRuns(t *testing.T, patience time.Duration) {
	t.Helper()
	deadline := time.Now().Add(patience)
	for activeWorkerRuns.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := activeWorkerRuns.Load(); n != 0 {
		t.Fatalf("worker session tables still hold %d runs after %v", n, patience)
	}
}

// TestMultiplexedRunTeardownNoLeak: 50 run/teardown cycles multiplexed
// over one persistent fleet — waves of concurrent runs sharing the same
// two daemons — must leave the session tables empty and the goroutine
// count flat. This is the multi-session variant of
// TestRepeatedRunTeardownNoLeak: every cycle's session, mesh, link
// and orphan timer must unwind even though the daemons
// (and other runs) live on.
func TestMultiplexedRunTeardownNoLeak(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	f := startFleet(t, tr, addrs)
	ctx := context.Background()

	flat, inputs := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}

	wave := func(n int) {
		t.Helper()
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() {
				_, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat)
				errs <- err
			}()
		}
		for i := 0; i < n; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("multiplexed run: %v", err)
			}
		}
	}

	// Warm-up waves populate caches and let teardown stragglers settle
	// before the baseline.
	wave(5)
	wave(5)
	waitNoWorkerRuns(t, 5*time.Second)
	base := settleGoroutines(t, runtime.NumGoroutine(), 2*time.Second)

	const waves, perWave = 10, 5 // 50 multiplexed run/teardown cycles
	for i := 0; i < waves; i++ {
		wave(perWave)
	}

	waitNoWorkerRuns(t, 5*time.Second)
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+slack {
		var sb strings.Builder
		pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("goroutines grew from %d to %d over %d multiplexed cycles; dump:\n%s",
			base, n, waves*perWave, sb.String())
	}
	// Five runs at once park up to five links per member, and no wave
	// adds to them.
	if n := parked(&f.idle); n > perWave*len(addrs) {
		t.Fatalf("%d links parked after waves of %d runs on %d members", n, perWave, len(addrs))
	}
	closeParkedLinks(t, f)
}

// TestMisroutedFrameRejected: the session table routes purely on the
// handshake's run ID, so a frame stamped for run A can never land in
// run B's inbox. Inject the corruption at both entry points: a mesh
// dial whose run ID matches nothing is rejected before it can touch any
// run, and a start bundle whose run field disagrees with its own
// connection's handshake is refused instead of cross-wiring two runs.
func TestMisroutedFrameRejected(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()
	ctx := context.Background()

	// Hold a real run open on the daemon so the table is non-empty: the
	// corrupt connections below must bounce off without disturbing it.
	flat, inputs := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:1")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	var hold *exec.FaultPlan
	if len(sc.Msgs) > 0 {
		msg := sc.Msgs[0]
		hold = &exec.FaultPlan{Faults: []exec.Fault{{Kind: exec.FaultDelay,
			From: msg.From, To: msg.To, Var: msg.Var, Delay: 800000, Count: 99}}}
	}
	resCh := make(chan *exec.Result, 1)
	errCh := make(chan error, 1)
	go func() {
		co := &Coordinator{Transport: tr, Addrs: addrs,
			Runner:         &exec.Runner{Inputs: inputs, Faults: hold},
			HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 5 * time.Second}
		res, err := co.Run(ctx, sc, flat)
		resCh <- res
		errCh <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for activeWorkerRuns.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if activeWorkerRuns.Load() == 0 {
		t.Fatal("run never reached the worker")
	}

	readError := func(c Conn) string {
		t.Helper()
		for {
			f, err := c.ReadFrame()
			if err != nil {
				t.Fatalf("connection closed without an error frame: %v", err)
			}
			switch f.Type {
			case TError:
				note, _ := decJSON[ErrorNote](f.Payload, "error")
				return note.Msg
			case TWelcome, THeartbeat, TAck:
				continue
			default:
				t.Fatalf("got %s frame, want an error", f.Type)
			}
		}
	}

	// A mesh dial naming a run the daemon does not host: rejected at the
	// table, never delivered anywhere.
	c, err := tr.Dial(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(Frame{Type: THello, Payload: encJSON(Hello{
		Proto: ProtoVersion, Run: "corrupted-run-id", Peer: 1})}); err != nil {
		t.Fatal(err)
	}
	if msg := readError(c); !strings.Contains(msg, "unknown run") {
		t.Fatalf("corrupt mesh run ID rejected with %q, want an unknown-run rejection", msg)
	}
	c.Close()

	// A coordinator handshake for run B carrying a start bundle stamped
	// run A: the daemon must refuse to cross-wire the two, because the
	// connection's frames all route to the run its handshake named.
	c, err = tr.Dial(ctx, addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(Frame{Type: THello, Payload: encJSON(Hello{
		Proto: ProtoVersion, Run: "run-b"})}); err != nil {
		t.Fatal(err)
	}
	bundle := encJSON(StartBundle{Run: "run-a", Workers: 1, Hosted: []bool{true}})
	if err := c.WriteFrame(Frame{Type: TStart, Wid: 1, Payload: encBlobEnvelope(bundle)}); err != nil {
		t.Fatal(err)
	}
	if msg := readError(c); !strings.Contains(msg, "start bundle for run") {
		t.Fatalf("mismatched start bundle rejected with %q, want a run-mismatch rejection", msg)
	}
	c.Close()

	// The hosted run sailed through both injections untouched.
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("hosted run failed during frame injection: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hosted run did not finish")
	}
	if res := <-resCh; !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatalf("hosted run outputs = %v, want %v", res.Outputs, want.Outputs)
	}
	waitNoWorkerRuns(t, 5*time.Second)
}

// TestCoordinatorErrorDropsRun: an error frame from the coordinator is
// its verdict on the run, not a protocol fault. The daemon drops the run
// and writes nothing back: no error frame in reply, and no protocol
// error in its log.
func TestCoordinatorErrorDropsRun(t *testing.T) {
	tr := Inproc()
	logged := captureLog(t, nil)
	d := &workerDaemon{opt: WorkerOptions{transport: tr}}
	ctx, cancel := context.WithCancel(context.Background())
	ready, down := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(down)
		d.serve(ctx, "w0", func(string) { close(ready) })
	}()
	defer func() {
		cancel()
		<-down
	}()
	<-ready

	c, err := tr.Dial(ctx, "w0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteFrame(Frame{Type: THello, Payload: encJSON(Hello{Proto: ProtoVersion, Run: "doomed"})}); err != nil {
		t.Fatal(err)
	}
	if f, err := c.ReadFrame(); err != nil || f.Type != TWelcome {
		t.Fatalf("handshake answered %v, %v; want a welcome", f.Type, err)
	}
	if err := c.WriteFrame(Frame{Type: TError, Wid: 1, Payload: encJSON(ErrorNote{Msg: "run abandoned"})}); err != nil {
		t.Fatal(err)
	}
	for {
		f, err := c.ReadFrame()
		if err != nil {
			break // the daemon closed the run's connection
		}
		if f.Type == TError {
			note, _ := decJSON[ErrorNote](f.Payload, "error")
			t.Fatalf("daemon answered the coordinator's error frame with one of its own: %q", note.Msg)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		d.mu.Lock()
		n := len(d.runs)
		d.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the daemon kept the run the coordinator aborted")
		}
	}
	for _, r := range logged.records() {
		if r.Msg == "protocol error" {
			t.Errorf("the coordinator's verdict was logged as a protocol error: %v", r.err())
		}
	}
}

// chokeTransport wraps a Transport with a kill switch: trip() abruptly
// closes every connection it ever dialed and refuses new dials,
// simulating a coordinator process dying without a goodbye.
type chokeTransport struct {
	Transport
	mu      sync.Mutex
	conns   []Conn
	tripped bool
}

func (ct *chokeTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	ct.mu.Lock()
	if ct.tripped {
		ct.mu.Unlock()
		return nil, fmt.Errorf("choke: transport tripped")
	}
	ct.mu.Unlock()
	c, err := ct.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.tripped {
		c.Close()
		return nil, fmt.Errorf("choke: transport tripped")
	}
	ct.conns = append(ct.conns, c)
	return c, nil
}

func (ct *chokeTransport) trip() {
	ct.mu.Lock()
	ct.tripped = true
	conns := ct.conns
	ct.conns = nil
	ct.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TestOrphanAbandonPerRun: the abandon-on-coordinator-silence timer is
// per-run state, not daemon-global. One hosted run whose coordinator
// vanishes without a goodbye is abandoned after ITS silence budget;
// a co-hosted run mid-flight on the same daemon never notices and
// completes with correct outputs. (Regression: the single-session
// daemon kept one global timer, so any coordinator's silence was every
// run's problem.)
func TestOrphanAbandonPerRun(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()
	ctx := context.Background()

	flat, inputs := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:1")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Msgs) == 0 {
		t.Skip("schedule has no message to delay")
	}
	holdPlan := func(usec int64) *exec.FaultPlan {
		msg := sc.Msgs[0]
		return &exec.FaultPlan{Faults: []exec.Fault{{Kind: exec.FaultDelay,
			From: msg.From, To: msg.To, Var: msg.Var, Delay: machine.Time(usec), Count: 99}}}
	}

	// Run A dials through the choke and holds itself open ~3s; its
	// silence budget (PeerTimeout, which the worker adopts as the orphan
	// timer) is short.
	choke := &chokeTransport{Transport: tr}
	aErr := make(chan error, 1)
	actx, acancel := context.WithCancel(ctx)
	defer acancel()
	go func() {
		co := &Coordinator{Transport: choke, Addrs: addrs,
			Runner:         &exec.Runner{Inputs: inputs, Faults: holdPlan(3000000)},
			HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 400 * time.Millisecond}
		_, err := co.Run(actx, sc, flat)
		aErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for activeWorkerRuns.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if activeWorkerRuns.Load() == 0 {
		t.Fatal("run A never reached the worker")
	}

	// Run B co-hosted on the same daemon, over the healthy transport,
	// held open ~1.5s so it is mid-flight when A's orphan timer fires.
	bRes := make(chan *exec.Result, 1)
	bErr := make(chan error, 1)
	go func() {
		co := &Coordinator{Transport: tr, Addrs: addrs,
			Runner:         &exec.Runner{Inputs: inputs, Faults: holdPlan(1500000)},
			HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 10 * time.Second}
		res, err := co.Run(ctx, sc, flat)
		bRes <- res
		bErr <- err
	}()
	deadline = time.Now().Add(5 * time.Second)
	for activeWorkerRuns.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if activeWorkerRuns.Load() < 2 {
		t.Fatal("run B never reached the worker")
	}

	// Kill A's coordinator abruptly: connections die, no goodbye, no
	// reconnect possible. Cancel its context too so the goroutine exits.
	time.Sleep(200 * time.Millisecond)
	choke.trip()
	acancel()
	if err := <-aErr; err == nil {
		t.Fatal("run A succeeded despite its coordinator dying")
	}

	// B must complete correctly — its barrier, session and timer are its
	// own, untouched by A's abandonment.
	select {
	case err := <-bErr:
		if err != nil {
			t.Fatalf("run B failed after run A's coordinator died: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run B hung after run A's coordinator died")
	}
	if res := <-bRes; !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatalf("run B outputs = %v, want %v", res.Outputs, want.Outputs)
	}

	// A is reaped by its own orphan timer: both table slots empty soon.
	waitNoWorkerRuns(t, 5*time.Second)
}

// TestMultiSoak repeats a seeded round of concurrent fleet runs —
// distinct designs and inputs multiplexed over one shared fleet, one
// run held open by wall-clock faults, a worker daemon killed mid-round
// and a replacement announced in — and asserts every run's outputs and
// printed lines are byte-identical to its solo baseline every round.
// The round count defaults low for the regular suite; `make multisoak`
// raises it via MULTISOAK_ROUNDS.
func TestMultiSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	rounds := 3
	if s := os.Getenv("MULTISOAK_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad MULTISOAK_ROUNDS %q: %v", s, err)
		}
		rounds = n
	}
	seed := int64(1)
	if s := os.Getenv("MULTISOAK_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad MULTISOAK_SEED %q: %v", s, err)
		}
		seed = n
	}

	// Three run slots with distinct designs and inputs: slot 0 is deep
	// enough for chained holds (it rides through the churn); 1 and 2 are
	// the clean bystanders whose results prove isolation.
	type slot struct {
		flat   *graph.Flat
		inputs pits.Env
		sc     *sched.Schedule
		want   *exec.Result
	}
	specs := []struct {
		layers, width int
		x             int64
	}{{8, 3, 3}, {4, 3, 5}, {5, 3, 7}}
	m := distMachine(t, "hypercube:2")
	slots := make([]slot, len(specs))
	for i, sp := range specs {
		flat, _ := distDesign(t, sp.layers, sp.width)
		inputs := pits.Env{"x": pits.Num(sp.x)}
		sc, err := sched.ETF{}.Schedule(flat.Graph, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = slot{flat: flat, inputs: inputs, sc: sc, want: want}
	}

	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		holdUsec := int64(900000 + rng.Intn(600000))
		killAt := time.Duration(150+rng.Intn(200)) * time.Millisecond
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			tr := Inproc()
			addrs, stop := startWorkers(t, tr, 2)
			defer stop()
			// The victim sorts after worker-0/worker-1 so placement gives
			// it worker index 2; the holds avoid its endpoints so killing
			// it never releases them.
			victimCtx, killVictim := context.WithCancel(context.Background())
			defer killVictim()
			ready := make(chan struct{})
			victimDown := make(chan struct{})
			go func() {
				defer close(victimDown)
				ServeWorker(victimCtx, tr, "worker-9-victim", WorkerOptions{}, func(string) { close(ready) })
			}()
			<-ready

			f := &Fleet{Transport: tr, Control: "fleet-control",
				Seed:           append(append([]string{}, addrs...), "worker-9-victim"),
				HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 500 * time.Millisecond}
			if err := f.Start(); err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ctx := context.Background()

			plan := holdChain(t, slots[0].sc, 3, 3, holdUsec, 2)
			runners := []*exec.Runner{
				{Inputs: slots[0].inputs, Faults: plan},
				{Inputs: slots[1].inputs},
				{Inputs: slots[2].inputs},
			}

			type outcome struct {
				i   int
				res *exec.Result
				err error
			}
			results := make(chan outcome, len(slots))
			for i := range slots {
				go func(i int) {
					res, err := f.Run(ctx, runners[i], slots[i].sc, slots[i].flat)
					results <- outcome{i, res, err}
				}(i)
			}

			// Mid-round churn: SIGKILL-equivalent on the victim daemon,
			// then a replacement announces in (the fleet records it and
			// offers it to the run that lost a worker).
			churnDone := make(chan struct{})
			var jstop func()
			go func() {
				defer close(churnDone)
				time.Sleep(killAt)
				killVictim()
				<-victimDown
				time.Sleep(50 * time.Millisecond)
				jstop = startNamedWorker(t, tr, "worker-9-joiner")
				if err := Announce(context.Background(), tr, f.Addr(), "worker-9-joiner"); err != nil {
					t.Errorf("rejoin announce: %v", err)
				}
			}()

			for range slots {
				out := <-results
				if out.err != nil {
					t.Fatalf("run %d: %v", out.i, out.err)
				}
				if !reflect.DeepEqual(out.res.Outputs, slots[out.i].want.Outputs) {
					t.Errorf("run %d outputs diverged from its solo baseline:\n got  %v\n want %v",
						out.i, out.res.Outputs, slots[out.i].want.Outputs)
				}
				if !reflect.DeepEqual(out.res.Printed, slots[out.i].want.Printed) {
					t.Errorf("run %d printed lines diverged:\n got  %q\n want %q",
						out.i, out.res.Printed, slots[out.i].want.Printed)
				}
			}
			<-churnDone
			if jstop != nil {
				defer jstop()
			}
			waitNoWorkerRuns(t, 5*time.Second)
		})
	}
}
