package wire

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ctlRequest dials a fleet's control listener, sends one
// request frame, and returns the reply type and any error message.
func ctlRequest(t *testing.T, tr Transport, addr string, typ Type, payload []byte) (Type, string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	c, err := tr.Dial(ctx, addr)
	if err != nil {
		return 0, err.Error()
	}
	defer c.Close()
	if err := c.WriteFrame(Frame{Type: typ, Payload: payload}); err != nil {
		return 0, err.Error()
	}
	f, err := c.ReadFrame()
	if err != nil {
		return 0, err.Error()
	}
	if f.Type == TError {
		note, _ := decJSON[ErrorNote](f.Payload, "error")
		return f.Type, note.Msg
	}
	return f.Type, ""
}

// ctlRetry repeats a control request until it is welcomed, retrying
// rejections that name a transient condition, and reports the outcome.
func ctlRetry(t *testing.T, tr Transport, addr string, typ Type, payload []byte, deadline time.Duration) error {
	t.Helper()
	until := time.Now().Add(deadline)
	for {
		got, msg := ctlRequest(t, tr, addr, typ, payload)
		if got == TWelcome {
			return nil
		}
		retryable := strings.Contains(msg, "retry") || strings.Contains(msg, "dial") ||
			strings.Contains(msg, "refused") || strings.Contains(msg, "no listener") ||
			strings.Contains(msg, "capacity")
		if !retryable || time.Now().After(until) {
			return fmt.Errorf("%s request rejected: %s", typ, msg)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// startNamedWorker launches one worker daemon at addr and returns a
// shutdown function that waits for it to exit. Safe off the test
// goroutine (join sequences run from timers).
func startNamedWorker(t *testing.T, tr Transport, addr string) func() {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ServeWorker(ctx, tr, addr, WorkerOptions{}, func(string) { close(ready) }); err != nil {
			t.Errorf("worker %s: %v", addr, err)
		}
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Errorf("worker %s never came up", addr)
	}
	return func() {
		cancel()
		<-done
	}
}

// startCtlFleet opens a fleet on tr seeded with addrs, its control
// listener at "ctl", and registers cleanup.
func startCtlFleet(t *testing.T, tr Transport, addrs []string, peerTimeout time.Duration, minWorkers int) *Fleet {
	t.Helper()
	f := &Fleet{Transport: tr, Control: "ctl", Seed: addrs, MinWorkers: minWorkers,
		HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: peerTimeout}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// joinWatch returns a channel that closes at the fleet's first record
// of a run taking a joiner in, captured for the rest of the test.
func joinWatch(t *testing.T) <-chan struct{} {
	joined := make(chan struct{})
	var once sync.Once
	captureLog(t, func(r logRecord) {
		if r.Msg == "fleet: worker joined a run in flight" {
			once.Do(func() { close(joined) })
		}
	})
	return joined
}

// announceUntilJoined re-announces addr to the fleet at ctl until a run
// in flight takes it in (joined closes) or within passes. The fleet
// welcomes every announce once it has recorded the member; each one
// offers the worker to the runs in flight again, and a run takes it
// only once it has dead processors to revive.
func announceUntilJoined(tr Transport, ctl, addr string, joined <-chan struct{}, within time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), within)
	defer cancel()
	go AnnounceLoop(ctx, tr, ctl, addr, 25*time.Millisecond)
	select {
	case <-joined:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("no run took %s in within %v", addr, within)
	}
}

// holdOpen builds a fault plan that holds the run open: a wall-clock
// delay on a message crossing the traffic-aware placement, with a
// count high enough that every post-barrier re-send re-arms the hold
// (otherwise the first pause/resume releases it and the run finishes
// before the churn sequence lands). Workers in avoid are excluded from
// both endpoints, so killing them does not release the hold either.
// Returns the plan and the worker hosting the delayed consumer.
func holdOpen(t *testing.T, sc *sched.Schedule, workers int, usec int64, avoid int) (*exec.FaultPlan, int) {
	t.Helper()
	workerOf := sched.Place(sc, workers)
	for _, msg := range sc.Msgs {
		fw, tw := workerOf[msg.FromPE], workerOf[msg.ToPE]
		if fw != tw && fw != avoid && tw != avoid {
			return &exec.FaultPlan{Faults: []exec.Fault{{Kind: exec.FaultDelay,
				From: msg.From, To: msg.To, Var: msg.Var,
				Delay: machine.Time(usec), Count: 99}}}, tw
		}
	}
	t.Skip("schedule has no suitable cross-worker message to delay")
	return nil, -1
}

// holdChain builds n wall-clock delay faults on cross-worker edges at
// increasing depths of the layered design, each downstream of the
// previous hold's consumer. A pause/resume barrier re-sends held
// messages immediately (resends bypass fault injection), so a single
// hold dies at the first barrier; a chain arms its next hold only
// after the previous one releases, keeping the run open across a whole
// churn sequence. Workers in avoid are excluded from the endpoints.
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

// TestDistDrain: `drain` evacuates a worker mid-run with zero lost
// state. The run completes with fault-free outputs, the departure is a
// planned WorkerDrained (not a crash recovery), and nothing waits out
// the peer timeout (set to 60s to prove it).
func TestDistDrain(t *testing.T) {
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
	plan, target := holdOpen(t, sc, 2, 1200000, -1)

	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	// A long silence budget proves the drain never leans on
	// heartbeat-loss detection or peer-timeout expiry.
	f := startCtlFleet(t, tr, addrs, 60*time.Second, 0)
	drained := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		// The run's worker numbering is the fleet's sorted membership.
		drained <- ctlRetry(t, tr, "ctl", TDrain, encJSON(DrainNote{Worker: target}), 5*time.Second)
	}()
	dist, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged after drain:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after drain:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	var drainedEv, crashResched, lost int
	for _, e := range dist.Trace.Events {
		switch {
		case e.Kind == trace.WorkerDrained:
			drainedEv++
		case e.Kind == trace.TaskRescheduled && e.Note == "recovery":
			crashResched++
		case e.Kind == trace.PeerLost:
			lost++
		}
	}
	if drainedEv == 0 {
		t.Error("trace records no WorkerDrained event")
	}
	if crashResched != 0 {
		t.Errorf("drain produced %d crash-recovery reschedules; want 0 (all should be planned)", crashResched)
	}
	if lost != 0 {
		t.Errorf("drain lost %d peers; a graceful departure must not look like a crash", lost)
	}
}

// TestDistJoinExpand: a worker joining mid-run revives dead processors
// through an expand replan and the run completes with fault-free
// outputs on the expanded fleet.
func TestDistJoinExpand(t *testing.T) {
	flat, inputs := distDesign(t, 6, 3)
	m := distMachine(t, "hypercube:3")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	// Three workers; the delayed edges run between the two
	// survivors so the victim's death cannot release the holds.
	plan := holdChain(t, sc, 3, 2, 1000000, 2)

	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	// The third worker (the last in sorted order) dies early; its
	// processors revive on the joiner announced after the recovery
	// settles.
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	ready := make(chan struct{})
	go ServeWorker(victimCtx, tr, "worker-2", WorkerOptions{}, func(string) { close(ready) })
	<-ready
	joinedRun := joinWatch(t)
	f := startCtlFleet(t, tr, append(addrs, "worker-2"), 400*time.Millisecond, 0)
	joined := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		killVictim()
		// Announce right away: the run turns the offers down until
		// heartbeat loss frees the victim's processors, then takes the
		// joiner in during the next hold.
		time.Sleep(50 * time.Millisecond)
		jstop := startNamedWorker(t, tr, "worker-3")
		t.Cleanup(jstop)
		joined <- announceUntilJoined(tr, "ctl", "worker-3", joinedRun, 5*time.Second)
	}()
	dist, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged after join:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after join:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	joins := 0
	for _, e := range dist.Trace.Events {
		if e.Kind == trace.PeerConnected && e.Note == "join" {
			joins++
		}
	}
	if joins == 0 {
		t.Error("trace records no joined peer")
	}
}

// TestDistElasticChurn: one SIGKILL-style worker death, one mid-run
// join, and one graceful drain in a single run, which still produces
// outputs byte-identical to the undisturbed single-process run.
func TestDistElasticChurn(t *testing.T) {
	// Eight layers: the deeper stencil is what gives holdChain three
	// chained cross-worker edges on this machine (six layers yield two).
	flat, inputs := distDesign(t, 8, 3)
	m := distMachine(t, "hypercube:3")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan := holdChain(t, sc, 3, 3, 1000000, 2)

	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	victimCtx, killVictim := context.WithCancel(context.Background())
	defer killVictim()
	ready := make(chan struct{})
	go ServeWorker(victimCtx, tr, "worker-2", WorkerOptions{}, func(string) { close(ready) })
	<-ready
	joinedRun := joinWatch(t)
	f := startCtlFleet(t, tr, append(addrs, "worker-2"), 400*time.Millisecond, 0)
	churn := make(chan error, 1)
	go func() {
		// Kill one worker, join a replacement, then drain one of the
		// original survivors — each op driven off the previous one's
		// completion, each landing inside the next chained hold.
		time.Sleep(200 * time.Millisecond)
		killVictim()
		time.Sleep(50 * time.Millisecond)
		jstop := startNamedWorker(t, tr, "worker-3")
		t.Cleanup(jstop)
		if err := announceUntilJoined(tr, "ctl", "worker-3", joinedRun, 5*time.Second); err != nil {
			churn <- fmt.Errorf("join: %w", err)
			return
		}
		time.Sleep(100 * time.Millisecond)
		// Worker 0 of the sorted membership: worker-0, a survivor.
		churn <- ctlRetry(t, tr, "ctl", TDrain, encJSON(DrainNote{Worker: 0}), 5*time.Second)
	}()
	dist, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-churn; err != nil {
		t.Fatal(err)
	}
	distBytes, err := EncodeEnv(dist.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	singleBytes, err := EncodeEnv(single.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(distBytes, singleBytes) {
		t.Errorf("outputs not byte-identical after churn:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if !reflect.DeepEqual(dist.Printed, single.Printed) {
		t.Errorf("printed lines diverged after churn:\n dist   %q\n single %q", dist.Printed, single.Printed)
	}
	st, err := dist.Trace.Summarize(m.NumPE())
	if err != nil {
		t.Fatal(err)
	}
	if st.Drained == 0 {
		t.Error("churn run records no drained worker")
	}
}

// TestChurnSoak repeats a seeded random join/drain/kill sequence
// against full runs and asserts fault-free outputs every round. The
// round count defaults low for the regular suite; `make churn` raises
// it via CHURN_ROUNDS.
func TestChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped in -short")
	}
	rounds := 3
	if s := os.Getenv("CHURN_ROUNDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad CHURN_ROUNDS %q: %v", s, err)
		}
		rounds = n
	}
	seed := int64(1)
	if s := os.Getenv("CHURN_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHURN_SEED %q: %v", s, err)
		}
		seed = n
	}

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
	rng := rand.New(rand.NewSource(seed))
	for round := 0; round < rounds; round++ {
		holdUsec := int64(900000 + rng.Intn(600000))
		firstAt := time.Duration(150+rng.Intn(200)) * time.Millisecond
		op := rng.Intn(3)          // 0: drain, 1: kill, 2: kill then join
		drainTarget := rng.Intn(2) // drains pick one of the two survivors
		t.Run(fmt.Sprintf("round%d-op%d", round, op), func(t *testing.T) {
			plan := holdChain(t, sc, 3, 3, holdUsec, 2)
			tr := Inproc()
			addrs, stop := startWorkers(t, tr, 2)
			defer stop()
			victimCtx, killVictim := context.WithCancel(context.Background())
			defer killVictim()
			ready := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				ServeWorker(victimCtx, tr, "worker-2", WorkerOptions{}, func(string) { close(ready) })
			}()
			<-ready
			joinedRun := joinWatch(t)
			f := startCtlFleet(t, tr, append(addrs, "worker-2"), 400*time.Millisecond, 0)
			churn := make(chan error, 1)
			jstops := make(chan func(), 1)
			go func() {
				time.Sleep(firstAt)
				switch op {
				case 0:
					churn <- ctlRetry(t, tr, "ctl", TDrain, encJSON(DrainNote{Worker: drainTarget}), 5*time.Second)
				case 1:
					killVictim()
					churn <- nil
				default:
					killVictim()
					time.Sleep(50 * time.Millisecond)
					jstops <- startNamedWorker(t, tr, "worker-3")
					churn <- announceUntilJoined(tr, "ctl", "worker-3", joinedRun, 5*time.Second)
				}
			}()
			dist, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
			killVictim()
			<-done
			cerr := <-churn
			// The joined worker outlives the run; stop its daemon only
			// after the result is in hand.
			select {
			case jstop := <-jstops:
				jstop()
			default:
			}
			if err != nil {
				t.Fatal(err)
			}
			if cerr != nil {
				t.Fatal(cerr)
			}
			if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
				t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
			}
			if !reflect.DeepEqual(dist.Printed, single.Printed) {
				t.Errorf("printed lines diverged:\n dist   %q\n single %q", dist.Printed, single.Printed)
			}
		})
	}
}

// TestCoordJoinWhileFinishing: a worker offered to a run that is
// finishing must be rejected explicitly — never silently admitted into
// the processor map with nothing left to start it with — and a drain
// of one of its workers refused, so the fleet keeps the member.
func TestCoordJoinWhileFinishing(t *testing.T) {
	run := steerToFinishing(t)
	tr := run.f.Transport
	got, msg := ctlRequest(t, tr, "ctl", TDrain, encJSON(DrainNote{Worker: 0}))
	if got != TError || !strings.Contains(msg, "finishing") {
		t.Fatalf("drain while finishing: got %s %q, want an explicit finishing rejection", got, msg)
	}
	// The fleet records an announced member whatever its runs decide.
	if got, msg := ctlRequest(t, tr, "ctl", TJoin, encJSON(JoinNote{Addr: "latecomer"})); got != TWelcome {
		t.Fatalf("announce: got %s %q, want the fleet's welcome", got, msg)
	}
	runs := run.f.runs()
	if len(runs) != 1 {
		t.Fatalf("%d runs in flight, want 1", len(runs))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := runs[0].submitJoin(ctx, "latecomer"); err == nil || !strings.Contains(err.Error(), "finishing") {
		t.Fatalf("join offer while finishing: got %v, want an explicit finishing rejection", err)
	}
	w0, w1, errCh, resCh := run.w0, run.w1, run.errCh, run.resCh
	empty, err := EncodeEnv(nil)
	if err != nil {
		t.Fatal(err)
	}
	res := encEventsEnvelope(encJSON(ResultNote{}), empty, nil, nil)
	if err := w0.l.Send(TResult, res); err != nil {
		t.Fatal(err)
	}
	if err := w1.l.Send(TResult, res); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("run failed after a finishing-state join attempt: %v", err)
		}
		if r := <-resCh; r == nil {
			t.Fatal("run returned no result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung after a finishing-state join attempt")
	}
}

// TestDrainRejectsBelowMinimum: MinWorkers bounds graceful shrink.
func TestDrainRejectsBelowMinimum(t *testing.T) {
	flat, inputs := distDesign(t, 6, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	plan, _ := holdOpen(t, sc, 2, 700000, -1)
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	f := startCtlFleet(t, tr, addrs, 60*time.Second, 2)
	checked := make(chan error, 1)
	go func() {
		time.Sleep(200 * time.Millisecond)
		got, msg := ctlRequest(t, tr, "ctl", TDrain, encJSON(DrainNote{Worker: 1}))
		if got != TError || !strings.Contains(msg, "minimum") {
			checked <- fmt.Errorf("drain below minimum: got %s %q, want a minimum-workers rejection", got, msg)
			return
		}
		checked <- nil
	}()
	if _, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat); err != nil {
		t.Fatal(err)
	}
	if err := <-checked; err != nil {
		t.Fatal(err)
	}
}
