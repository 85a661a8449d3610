package wire

import (
	"context"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sched"
)

// startFleet opens a fleet on the transport with the given seed
// members and registers cleanup.
func startFleet(t *testing.T, tr Transport, seed []string) *Fleet {
	t.Helper()
	f := &Fleet{Transport: tr, Control: "fleet-control", Seed: seed,
		HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 2 * time.Second}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestFleetMembership(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 3)
	defer stop()
	f := startFleet(t, tr, nil)
	ctx := context.Background()

	// Workers enter by announcing, exactly as `banger worker -join`.
	for _, a := range addrs {
		if err := Announce(ctx, tr, f.Addr(), a); err != nil {
			t.Fatalf("announce %s: %v", a, err)
		}
	}
	// Announcing again is an idempotent no-op.
	if err := Announce(ctx, tr, f.Addr(), addrs[0]); err != nil {
		t.Fatalf("re-announce: %v", err)
	}
	if got := f.Members(); !reflect.DeepEqual(got, []string{"worker-0", "worker-1", "worker-2"}) {
		t.Fatalf("members = %v", got)
	}

	// Drain removes a member; the floor protects the last one.
	if err := Drain(ctx, tr, f.Addr(), -1, addrs[1]); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := Drain(ctx, tr, f.Addr(), -1, addrs[1]); err == nil {
		t.Fatal("draining a non-member should be rejected")
	}
	if err := Drain(ctx, tr, f.Addr(), -1, addrs[0]); err != nil {
		t.Fatalf("drain to floor: %v", err)
	}
	if err := Drain(ctx, tr, f.Addr(), -1, addrs[2]); err == nil {
		t.Fatal("draining the last member should be rejected")
	}
	if n := f.Size(); n != 1 {
		t.Fatalf("size = %d, want 1", n)
	}
}

// TestFleetDrainByIndex: a drain that names a worker by index, as
// `banger drain -worker N` does, drains the fleet's N-th member in
// sorted address order — the worker a -dist run numbers N. An index
// past the members is refused and drains nothing.
func TestFleetDrainByIndex(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 3)
	defer stop()
	f := startFleet(t, tr, []string{addrs[2], addrs[0], addrs[1]})
	ctx := context.Background()

	for _, n := range []int{3, -1} {
		if err := Drain(ctx, tr, f.Addr(), n, ""); err == nil || !strings.Contains(err.Error(), "no worker") {
			t.Fatalf("drain of worker %d: got %v, want an out-of-range refusal", n, err)
		}
	}
	if got := f.Size(); got != 3 {
		t.Fatalf("a refused drain left %d members, want 3", got)
	}
	if err := Drain(ctx, tr, f.Addr(), 1, ""); err != nil {
		t.Fatalf("drain of worker 1: %v", err)
	}
	if got := f.Members(); !reflect.DeepEqual(got, []string{"worker-0", "worker-2"}) {
		t.Fatalf("members after draining worker 1 = %v, want worker-1 gone", got)
	}
}

// TestFleetRunBackToBack is the reuse contract: many runs over one
// fleet, every one byte-identical to the single-process runner, with
// the control listener handed back and forth each time.
func TestFleetRunBackToBack(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	f := startFleet(t, tr, addrs)
	ctx := context.Background()

	flat, inputs := distDesign(t, 4, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		res, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(res.Outputs, want.Outputs) {
			t.Fatalf("run %d outputs = %v, want %v", i, res.Outputs, want.Outputs)
		}
		if !reflect.DeepEqual(res.Printed, want.Printed) {
			t.Fatalf("run %d printed = %v, want %v", i, res.Printed, want.Printed)
		}
		// The control listener must be back in fleet hands: an
		// announce between runs is served.
		if err := Announce(ctx, tr, f.Addr(), addrs[0]); err != nil {
			t.Fatalf("between-run announce after run %d: %v", i, err)
		}
	}
}

// TestFleetDropsDeadWorker: nothing probes the members before a run —
// the run's own connect is the liveness check. A member whose daemon
// died between two runs fails the lease of its parked link and then the
// one short dial; that drops it, the attempt fails (connect is
// all-or-nothing) and the run is placed again on the survivor, all
// within a second. A restarted daemon re-enters by announcing.
func TestFleetDropsDeadWorker(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()

	// The victim lives on its own cancellable context.
	vctx, vcancel := context.WithCancel(context.Background())
	defer vcancel()
	victimUp := make(chan struct{})
	victimDown := make(chan struct{})
	go func() {
		defer close(victimDown)
		ServeWorker(vctx, tr, "victim", WorkerOptions{}, func(string) { close(victimUp) })
	}()
	<-victimUp

	f := startFleet(t, tr, append(addrs, "victim"))
	ctx := context.Background()

	flat, inputs := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	// Run once on both, kill the victim, run again: the connect must
	// shrink the fleet to the survivor and the run must still succeed.
	if _, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
		t.Fatalf("run on full fleet: %v", err)
	}
	vcancel()
	<-victimDown
	t0 := time.Now()
	res, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat)
	if err != nil {
		t.Fatalf("run after worker death: %v", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("run after worker death took %v, want under a second (one failed dial, no back-off)", took)
	}
	if !reflect.DeepEqual(res.Outputs, want.Outputs) {
		t.Fatalf("outputs after worker death = %v, want %v", res.Outputs, want.Outputs)
	}
	if n := f.Size(); n != 1 {
		t.Fatalf("size after the failed connect = %d, want 1", n)
	}
	// Load is kept only for members with a run placed on them: with the
	// runs over and the victim dropped, nothing may be left behind (a
	// long-lived fleet whose workers restart on fresh ports would
	// otherwise grow the map forever).
	f.mu.Lock()
	left := len(f.load)
	f.mu.Unlock()
	f.idle.mu.Lock()
	links := len(f.idle.conns["victim"])
	f.idle.mu.Unlock()
	if left != 0 {
		t.Fatalf("load map holds %d entries with no run in flight, want 0", left)
	}
	if links != 0 {
		t.Fatalf("%d links still parked for the dropped member", links)
	}

	// A restarted daemon announces its way back in.
	rctx, rcancel := context.WithCancel(context.Background())
	defer rcancel()
	revivedUp := make(chan struct{})
	go ServeWorker(rctx, tr, "victim", WorkerOptions{}, func(string) { close(revivedUp) })
	<-revivedUp
	if err := Announce(ctx, tr, f.Addr(), "victim"); err != nil {
		t.Fatalf("rejoin announce: %v", err)
	}
	if n := f.Size(); n != 2 {
		t.Fatalf("size after rejoin = %d, want 2", n)
	}
	if _, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
		t.Fatalf("run after rejoin: %v", err)
	}
}

// TestRepeatedRunTeardownNoLeak is the regression test for session and
// coordinator teardown: back-to-back runs on the same long-lived fleet
// must not accumulate goroutines or mesh links. Every coordinator run
// spins up per-peer readers, redialers, a control listener, mesh dial
// loops on the workers and an exec session per side; after each run
// all of it must be torn down even though the worker daemons live on.
func TestRepeatedRunTeardownNoLeak(t *testing.T) {
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

	run := func(i int) {
		t.Helper()
		if _, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}

	// Warm up: first runs populate caches (compiled programs, encoded
	// schedules) and may leave short-lived teardown goroutines; let
	// those settle before taking the baseline.
	for i := 0; i < 2; i++ {
		run(i)
	}
	base := settleGoroutines(t, runtime.NumGoroutine(), 2*time.Second)

	const cycles = 10
	for i := 0; i < cycles; i++ {
		run(i)
	}

	// Teardown is asynchronous on the worker side (TBye is processed
	// after the coordinator returns), so give the counts a moment to
	// settle before declaring a leak.
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+slack {
		var sb strings.Builder
		pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("goroutines grew from %d to %d over %d run/teardown cycles; dump:\n%s",
			base, n, cycles, sb.String())
	}
	if n := parked(&f.idle); n != len(addrs) {
		t.Fatalf("%d links parked after sequential runs on %d members, want one each", n, len(addrs))
	}
	closeParkedLinks(t, f)
}

// closeParkedLinks ends a leak test: what the fleet still holds with no
// run in flight is its parked links — each a connection, and on its
// daemon a reader and a goroutine awaiting the next Hello, none of them
// a run-table slot — and Close gives every one of them up.
func closeParkedLinks(t *testing.T, f *Fleet) {
	t.Helper()
	waitNoWorkerRuns(t, 5*time.Second)
	links, base := parked(&f.idle), runtime.NumGoroutine()
	f.Close()
	if n := parked(&f.idle); n != 0 {
		t.Fatalf("%d links still parked after Close", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base-links && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base-links {
		var sb strings.Builder
		pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("%d goroutines after Close against %d with %d links parked: the daemons still hold them; dump:\n%s",
			n, base, links, sb.String())
	}
}

// settleGoroutines waits for the goroutine count to stop falling and
// returns the settled floor.
func settleGoroutines(t *testing.T, start int, patience time.Duration) int {
	t.Helper()
	low := start
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < low {
			low = n
			deadline = time.Now().Add(patience)
		}
	}
	return low
}

// TestRepeatedLocalSessionNoLeak covers the single-process half of the
// teardown contract: a serving layer runs many in-process sessions
// back to back against one shared stats block, and each must unwind
// its workers and controller completely.
func TestRepeatedLocalSessionNoLeak(t *testing.T) {
	flat, inputs := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:2")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	stats := &exec.Stats{}
	run := func(i int) {
		t.Helper()
		if _, err := (&exec.Runner{Inputs: inputs, Stats: stats}).Run(sc, flat); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		run(i)
	}
	base := settleGoroutines(t, runtime.NumGoroutine(), time.Second)
	const cycles = 20
	for i := 0; i < cycles; i++ {
		run(i)
	}
	const slack = 3
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+slack {
		var sb strings.Builder
		pprof.Lookup("goroutine").WriteTo(&sb, 1)
		t.Fatalf("goroutines grew from %d to %d over %d local sessions; dump:\n%s",
			base, n, cycles, sb.String())
	}
	if got := stats.Snapshot().TasksRun; got == 0 {
		t.Fatal("shared stats block recorded no tasks")
	}
}

// TestFleetConcurrentRuns: worker daemons multiplex sessions keyed by
// run ID, so the fleet admits many coordinators at once — the runs must
// genuinely overlap in flight, and every one must still succeed.
func TestFleetConcurrentRuns(t *testing.T) {
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
	// A wall-clock hold keeps each run open long enough for the launches
	// to overlap; avoid=-1 excludes nobody.
	plan, _ := holdOpen(t, sc, 2, 400000, -1)
	const runs = 4
	errs := make(chan error, runs)
	for i := 0; i < runs; i++ {
		go func() {
			_, err := f.Run(ctx, &exec.Runner{Inputs: inputs, Faults: plan}, sc, flat)
			errs <- err
		}()
	}
	// Watch concurrency while the runs are in flight.
	peak := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if n := f.ActiveRuns(); n > peak {
				peak = n
			}
			select {
			case <-time.After(5 * time.Millisecond):
			case <-ctx.Done():
				return
			}
			if peak == runs {
				return
			}
		}
	}()
	for i := 0; i < runs; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("concurrent run: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent fleet runs deadlocked")
		}
	}
	<-done
	if peak < 2 {
		t.Fatalf("runs never overlapped: peak concurrency %d, want >= 2", peak)
	}
}

// TestFleetPlaceLeastLoaded: placement picks the members hosting the
// fewest runs, breaking ties by address, and returns them sorted so
// worker indices stay deterministic.
func TestFleetPlaceLeastLoaded(t *testing.T) {
	f := &Fleet{Transport: Inproc(), Control: "fleet-control-place"}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	live := []string{"a", "b", "c", "d"}
	f.mu.Lock()
	f.load = map[string]int{"a": 2, "b": 0, "c": 1, "d": 0}
	f.mu.Unlock()
	if got := f.place(live, 2); !reflect.DeepEqual(got, []string{"b", "d"}) {
		t.Fatalf("place picked %v, want the idle members [b d]", got)
	}
	if got := f.place(live, 3); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("place picked %v, want [b c d]", got)
	}
	// More processors than members: everyone plays.
	if got := f.place(live, 8); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("place picked %v, want all members", got)
	}
}
