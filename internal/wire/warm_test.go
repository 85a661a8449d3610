package wire

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// What a repeat fleet run may not pay for again — the dial, the schedule
// bytes, the era — counted on the wire and in the daemons' tables, not
// timed.

// wireCount wraps a transport and counts, on the connections dialled
// through it, what a run's set-up costs: dials per address, and the
// schedule bytes start bundles carry. Given to a fleet it sees the
// coordinators' side only (daemons dial their mesh links over their
// own transport).
type wireCount struct {
	Transport
	mu    sync.Mutex
	dials map[string]int
	blob  atomic.Int64
}

func (t *wireCount) Dial(ctx context.Context, addr string) (Conn, error) {
	t.mu.Lock()
	if t.dials == nil {
		t.dials = map[string]int{}
	}
	t.dials[addr]++
	t.mu.Unlock()
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return blobCountingConn{c, &t.blob}, nil
}

func (t *wireCount) dialled(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dials[addr]
}

type blobCountingConn struct {
	Conn
	n *atomic.Int64
}

func (c blobCountingConn) WriteFrame(f Frame) error {
	if f.Type == TStart {
		if _, blobs, err := decBlobEnvelope(f.Payload); err == nil && len(blobs) > 0 {
			c.n.Add(int64(len(blobs[0])))
		}
	}
	return c.Conn.WriteFrame(f)
}

// startDaemons is startWorkers with the daemon values kept, so a test
// can read their schedule tables. Each daemon runs on its own context:
// kill[i] ends daemon i alone.
func startDaemons(t *testing.T, tr Transport, names ...string) (ds []*workerDaemon, kill []func()) {
	t.Helper()
	for _, name := range names {
		d, stop := startDaemon(t, tr, name)
		ds, kill = append(ds, d), append(kill, stop)
	}
	return ds, kill
}

func startDaemon(t *testing.T, tr Transport, name string) (*workerDaemon, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &workerDaemon{opt: WorkerOptions{transport: tr}}
	ready, down := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(down)
		if err := d.serve(ctx, name, func(string) { close(ready) }); err != nil {
			t.Errorf("worker %s: %v", name, err)
		}
	}()
	select {
	case <-ready:
	case <-time.After(5 * time.Second):
		t.Fatalf("worker %s never came up", name)
	}
	stop := func() {
		cancel()
		<-down
	}
	t.Cleanup(stop)
	return d, stop
}

// heldBy snapshots a daemon's schedule table.
func heldBy(d *workerDaemon) map[string]*held {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[string]*held, len(d.held))
	for k, v := range d.held {
		out[k] = v
	}
	return out
}

// parked counts a pool's idle connections.
func parked(p *idleConns) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, cs := range p.conns {
		n += len(cs)
	}
	return n
}

// runEvents is a result's trace without the coordinator's own
// connection-level events (connect instants are wall-clock, byte counts
// differ by exactly the unshipped blob).
func runEvents(res *exec.Result) []trace.Event {
	var evs []trace.Event
	for _, e := range res.Trace.Events {
		if e.Kind != trace.PeerConnected && e.Kind != trace.WireBytes {
			evs = append(evs, e)
		}
	}
	return evs
}

func warmDesign(t *testing.T) (*sched.Schedule, *graph.Flat, *exec.Runner) {
	t.Helper()
	flat, inputs := distDesign(t, 4, 3)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:2"))
	if err != nil {
		t.Fatal(err)
	}
	return sc, flat, &exec.Runner{Inputs: inputs, VirtualTime: true}
}

// TestScheduleHitAndMissAgree: the first run of a schedule ships it to
// each daemon (a miss), the second ships nothing (a hit), and the two
// are the same run — outputs, print lines and every processor's events,
// which are also the single-process runner's.
func TestScheduleHitAndMissAgree(t *testing.T) {
	tr := Inproc()
	ds, _ := startDaemons(t, tr, "w0", "w1")
	wc := &wireCount{Transport: tr}
	f := startFleet(t, wc, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()

	blob, err := EncodeSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := wc.blob.Load(), int64(2*len(blob)); got != want {
		t.Fatalf("first run shipped %d schedule bytes, want the %d-byte blob once per daemon", got, 2*len(blob))
	}
	hit, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if got := wc.blob.Load() - int64(2*len(blob)); got != 0 {
		t.Fatalf("second run shipped %d schedule bytes to daemons that hold the schedule", got)
	}
	single, err := runner.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]*exec.Result{"miss": miss, "hit": hit} {
		if !reflect.DeepEqual(res.Outputs, single.Outputs) || !reflect.DeepEqual(res.Printed, single.Printed) {
			t.Errorf("%s run: outputs %v printed %q, single-process %v %q", name, res.Outputs, res.Printed, single.Outputs, single.Printed)
		}
	}
	if a, b := runEvents(miss), runEvents(hit); !reflect.DeepEqual(a, b) {
		t.Errorf("hit and miss traces differ: %d events against %d", len(a), len(b))
	}
	for i, d := range ds {
		if n := len(heldBy(d)); n != 1 {
			t.Errorf("daemon %d holds %d schedules after two runs of one, want 1", i, n)
		}
	}
}

// TestRestartedDaemonTakesTheMiss: a daemon restarted between two runs
// comes back with an empty table and no connections. The parked link to
// it fails its lease, one dial reaches the new process, its Welcome says
// it holds nothing, and the schedule is shipped to it alone.
func TestRestartedDaemonTakesTheMiss(t *testing.T) {
	tr := Inproc()
	_, kill := startDaemons(t, tr, "w0", "w1")
	wc := &wireCount{Transport: tr}
	f := startFleet(t, wc, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()

	want, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	shipped := wc.blob.Load()
	kill[1]()
	d1, _ := startDaemon(t, tr, "w1")
	if n := len(heldBy(d1)); n != 0 {
		t.Fatalf("restarted daemon starts with %d schedules", n)
	}
	got, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatalf("run after restart: %v", err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(runEvents(got), runEvents(want)) {
		t.Error("run after the restart differs from the run before it")
	}
	if again := wc.blob.Load() - shipped; again != shipped/2 {
		t.Errorf("run after restart shipped %d schedule bytes, want one blob (%d) to the restarted daemon", again, shipped/2)
	}
	if n := len(heldBy(d1)); n != 1 {
		t.Errorf("restarted daemon holds %d schedules after its run, want 1", n)
	}
	if a, b := wc.dialled("w0"), wc.dialled("w1"); a != 1 || b != 2 {
		t.Errorf("dials: w0 %d, w1 %d; want 1 and 2 (the restart costs one)", a, b)
	}
	if f.Size() != 2 {
		t.Errorf("fleet size %d after a restart between runs, want 2", f.Size())
	}
}

// playCoordinator drives a one-worker run on a daemon by hand, from a
// Hello naming digest through a start bundle carrying bin (nil: none) to
// the goodbye and its answer. It returns the Welcome and the error frame
// the daemon answered the bundle with, if it did.
func playCoordinator(t *testing.T, tr Transport, addr, runID, digest string, bin []byte,
	sc *sched.Schedule, flat *graph.Flat, runner *exec.Runner, between func()) (Welcome, string) {
	t.Helper()
	c, err := tr.Dial(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w, err := handshake(c, Hello{Proto: ProtoVersion, Run: runID, Digest: digest})
	if err != nil {
		t.Fatal(err)
	}
	if between != nil {
		between()
	}
	hosted := make([]bool, sc.Machine.NumPE())
	for i := range hosted {
		hosted[i] = true
	}
	bundle := StartBundle{Run: runID, Workers: 1, Hosted: hosted, Opts: OptsFor(runner)}
	if bin != nil {
		bundle.ExternalIn, bundle.ExternalOut = flat.ExternalIn, flat.ExternalOut
	}
	inputs, err := EncodeEnv(runner.Inputs)
	if err != nil {
		t.Fatal(err)
	}
	co := &scripted{t: t, c: c, l: NewLink(c)}
	if err := co.l.Send(TStart, encBlobEnvelope(encJSON(bundle), bin, inputs)); err != nil {
		t.Fatal(err)
	}
	// The daemon answers a bundle it cannot run with an error frame, and
	// one it can with Idle once the (single-worker) run has drained.
	for {
		f, err := c.ReadFrame()
		if err != nil {
			t.Fatalf("waiting for the run to go idle: %v", err)
		}
		co.l.Receive(f)
		if f.Type == TError {
			note, _ := decJSON[ErrorNote](f.Payload, "error")
			return w, note.Msg
		}
		if f.Type == TIdle {
			break
		}
	}
	if err := co.l.Send(TFinish, nil); err != nil {
		t.Fatal(err)
	}
	co.readUntil(TResult)
	if err := co.l.Send(TBye, nil); err != nil {
		t.Fatal(err)
	}
	co.readUntil(TBye)
	return w, ""
}

// TestTableDropBetweenHelloAndStart: a run pins the schedule its Hello
// names, so the daemon's table being dropped wholesale (it is, at its
// cap) between the Welcome that said "held" and the start bundle that
// therefore came without it does not fail the run. A bundle without a
// schedule for a run that pinned none is refused by name.
func TestTableDropBetweenHelloAndStart(t *testing.T) {
	tr := Inproc()
	d, _ := startDaemon(t, tr, "w0")
	sc, flat, runner := warmDesign(t)
	var ships shipments
	ship, err := ships.of(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	w, msg := playCoordinator(t, tr, "w0", "r-miss", ship.digest, ship.bin, sc, flat, runner, nil)
	if w.Have || msg != "" {
		t.Fatalf("first run: welcome %+v, error %q; want a miss that runs", w, msg)
	}
	if _, ok := heldBy(d)[ship.digest]; !ok {
		t.Fatalf("daemon does not hold the schedule under the coordinator's digest %s", ship.digest)
	}
	w, msg = playCoordinator(t, tr, "w0", "r-dropped", ship.digest, nil, sc, flat, runner, func() {
		d.mu.Lock()
		d.held = map[string]*held{}
		d.mu.Unlock()
	})
	if !w.Have || msg != "" {
		t.Fatalf("run across a table drop: welcome %+v, error %q; want a hit that runs", w, msg)
	}
	w, msg = playCoordinator(t, tr, "w0", "r-unknown", ship.digest, nil, sc, flat, runner, nil)
	if w.Have || !strings.Contains(msg, "carries no schedule") {
		t.Fatalf("blobless start on an empty table: welcome %+v, error %q; want a refusal", w, msg)
	}
	waitNoWorkerRuns(t, 5*time.Second)
}

// TestDigestSeparatesSchedules: nothing outside the digest can change
// what a daemon runs, so everything that can is inside it. Two schedules
// one task weight apart, or one design binding apart, never share an
// entry; an empty binding map and an absent one (what it becomes on the
// wire) are the same schedule.
func TestDigestSeparatesSchedules(t *testing.T) {
	sc, flat, runner := warmDesign(t)
	var ships shipments
	base, err := ships.of(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	// One task weight apart: a different design, scheduled the same way.
	g2 := flat.Graph.Clone()
	g2.Node("t1_1").Work++
	flat2 := &graph.Flat{Graph: g2, ExternalIn: flat.ExternalIn, ExternalOut: flat.ExternalOut}
	sc2, err := sched.ETF{}.Schedule(g2, sc.Machine)
	if err != nil {
		t.Fatal(err)
	}
	weight, err := ships.of(sc2, flat2)
	if err != nil {
		t.Fatal(err)
	}
	if weight.digest == base.digest {
		t.Error("two schedules one task weight apart share a digest")
	}

	// One binding apart: the same blob, another design around it.
	in := map[graph.NodeID][]string{}
	for k, v := range flat.ExternalIn {
		in[k] = v
	}
	in["t0_0"] = append([]string{"y"}, in["t0_0"]...)
	bound, err := ships.of(sc, &graph.Flat{Graph: flat.Graph, ExternalIn: in, ExternalOut: flat.ExternalOut})
	if err != nil {
		t.Fatal(err)
	}
	if bound.digest == base.digest {
		t.Error("two designs one external binding apart share a digest")
	}
	if a, b := scheduleDigest(base.bin, nil, nil), scheduleDigest(base.bin, map[graph.NodeID][]string{}, map[graph.NodeID][]string{}); a != b {
		t.Error("an empty binding map and an absent one digest differently")
	}

	// And on a daemon: each is decoded and compiled on its own.
	tr := Inproc()
	d, _ := startDaemon(t, tr, "w0")
	f := startFleet(t, tr, []string{"w0"})
	for _, run := range []struct {
		sc   *sched.Schedule
		flat *graph.Flat
	}{{sc, flat}, {sc2, flat2}, {sc, flat}} {
		if _, err := f.Run(context.Background(), runner, run.sc, run.flat); err != nil {
			t.Fatal(err)
		}
	}
	held := heldBy(d)
	if len(held) != 2 || held[base.digest] == nil || held[weight.digest] == nil || held[base.digest].s == held[weight.digest].s {
		t.Errorf("daemon holds %d schedules after runs of two, want one entry each under its digest", len(held))
	}
}

// TestFleetRunsShareOneEraPerDaemon: 16 fleet runs racing on a fresh
// schedule leave each daemon with one table entry and one compiled era
// on it, and a run after them compiles nothing: the era is the same
// pointer before and after (as TestConcurrentRunsShareOneEra checks
// in-process). The coordinator's side encoded the schedule once.
func TestFleetRunsShareOneEraPerDaemon(t *testing.T) {
	tr := Inproc()
	ds, _ := startDaemons(t, tr, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()

	const racers = 16
	errs := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			_, err := f.Run(ctx, runner, sc, flat)
			errs <- err
		}()
	}
	for i := 0; i < racers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	ship, err := f.ships.of(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	eras := make([]any, len(ds))
	for i, d := range ds {
		held := heldBy(d)
		if len(held) != 1 || held[ship.digest] == nil {
			t.Fatalf("daemon %d holds %d schedules after %d racing runs of one, want 1 under its digest", i, len(held), racers)
		}
		if eras[i] = held[ship.digest].s.Derived(); eras[i] == nil {
			t.Fatalf("daemon %d ran the schedule and parked no era on it", i)
		}
	}
	if _, err := f.Run(ctx, runner, sc, flat); err != nil {
		t.Fatal(err)
	}
	for i, d := range ds {
		if got := heldBy(d)[ship.digest]; got == nil || got.s.Derived() != eras[i] {
			t.Errorf("daemon %d compiled a new era for a schedule it holds", i)
		}
	}
	if again, _ := f.ships.of(sc, flat); again != ship {
		t.Error("the fleet encoded the schedule again")
	}
}

// TestFleetRunsReuseLinks: sequential runs dial each member once —
// every later run opens on the link the one before parked — and two
// lanes of runs at most twice; the schedule crosses the wire once per
// daemon. Closing the fleet closes what is parked.
func TestFleetRunsReuseLinks(t *testing.T) {
	tr := Inproc()
	startDaemons(t, tr, "w0", "w1")
	wc := &wireCount{Transport: tr}
	f := startFleet(t, wc, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		if _, err := f.Run(ctx, runner, sc, flat); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for _, a := range []string{"w0", "w1"} {
		if n := wc.dialled(a); n != 1 {
			t.Errorf("6 sequential runs dialled %s %d times, want 1", a, n)
		}
	}
	if n := parked(&f.idle); n != 2 {
		t.Errorf("%d links parked between runs, want one per member", n)
	}
	shipped := wc.blob.Load()

	var lanes sync.WaitGroup
	for lane := 0; lane < 2; lane++ {
		lanes.Add(1)
		go func() {
			defer lanes.Done()
			for i := 0; i < 6; i++ {
				if _, err := f.Run(ctx, runner, sc, flat); err != nil {
					t.Errorf("lane run %d: %v", i, err)
					return
				}
			}
		}()
	}
	lanes.Wait()
	for _, a := range []string{"w0", "w1"} {
		if n := wc.dialled(a); n > 2 {
			t.Errorf("two lanes of runs dialled %s %d times in all, want at most 2", a, n)
		}
	}
	if again := wc.blob.Load() - shipped; again != 0 {
		t.Errorf("runs of a held schedule shipped %d schedule bytes", again)
	}
	waitNoWorkerRuns(t, 5*time.Second)
	f.Close()
	if n := parked(&f.idle); n != 0 {
		t.Errorf("%d links still parked after Close", n)
	}
	if _, err := f.Run(ctx, runner, sc, flat); err == nil {
		t.Error("a closed fleet ran")
	}
}

// parkedTo counts a pool's connections to addr.
func parkedTo(p *idleConns, addr string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns[addr])
}

// runUntilParked runs the design on f until daemon d holds a parked
// mesh link to addr, and returns the last run: a run can be over before
// its dial loop got to dial at all.
func runUntilParked(t *testing.T, f *Fleet, runner *exec.Runner, sc *sched.Schedule, flat *graph.Flat, d *workerDaemon, addr string) *exec.Result {
	t.Helper()
	for i := 0; i < 50; i++ {
		res, err := f.Run(context.Background(), runner, sc, flat)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		waitNoWorkerRuns(t, 5*time.Second)
		if parkedTo(&d.idle, addr) > 0 {
			return res
		}
	}
	t.Fatalf("50 runs parked no mesh link to %s", addr)
	return nil
}

// TestFleetRunsReuseMeshLinks: the mesh link of a run is parked by its
// daemon pair when the run ends, so sequential runs on two daemons make
// one mesh dial in all — worker 1's first — and the dialling daemon
// holds that one connection between runs.
func TestFleetRunsReuseMeshLinks(t *testing.T) {
	tr := Inproc()
	meshDials := &wireCount{Transport: tr}
	ds, _ := startDaemons(t, meshDials, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	runUntilParked(t, f, runner, sc, flat, ds[1], "w0")
	for i := 0; i < 6; i++ {
		if _, err := f.Run(context.Background(), runner, sc, flat); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		waitNoWorkerRuns(t, 5*time.Second)
		if n := parkedTo(&ds[1].idle, "w0"); n != 1 {
			t.Fatalf("after run %d worker 1's daemon holds %d mesh links to worker 0, want 1", i, n)
		}
	}
	if n := meshDials.dialled("w0"); n != 1 {
		t.Errorf("sequential runs made %d mesh dials, want 1", n)
	}
	if n := parked(&ds[0].idle); n != 0 {
		t.Errorf("the dialled daemon parked %d mesh links: the accepting end keeps none", n)
	}
}

// TestParkedMeshLinkEndsWithItsDaemon: the daemon at the far end of a
// parked mesh link dies between two runs and comes back on its address.
// The next run to reach its dial loop leases that link, its Hello fails,
// one dial reaches the new process, and later runs lease that one. Every
// run is the first, event for event.
func TestParkedMeshLinkEndsWithItsDaemon(t *testing.T) {
	tr := Inproc()
	meshDials := &wireCount{Transport: tr}
	ds, kill := startDaemons(t, meshDials, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	want := runUntilParked(t, f, runner, sc, flat, ds[1], "w0")
	before := meshDials.dialled("w0")
	kill[0]()
	startDaemon(t, meshDials, "w0")
	var runs []*exec.Result
	for i := 0; i < 50 && meshDials.dialled("w0") == before; i++ {
		runs = append(runs, runUntilParked(t, f, runner, sc, flat, ds[1], "w0"))
	}
	runs = append(runs, runUntilParked(t, f, runner, sc, flat, ds[1], "w0"))
	if n := meshDials.dialled("w0") - before; n != 1 {
		t.Errorf("%d mesh dials to w0 after the restart, want 1: one after the dead lease", n)
	}
	for i, got := range runs {
		if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Printed, want.Printed) {
			t.Errorf("run %d after the restart: outputs %v printed %q, want %v %q", i, got.Outputs, got.Printed, want.Outputs, want.Printed)
		}
		if a, b := runEvents(want), runEvents(got); !reflect.DeepEqual(a, b) {
			t.Errorf("run %d after the restart: %d events against %d", i, len(b), len(a))
		}
	}
}

// TestLostMemberGetsNoParkedMeshLink: a member killed under a run takes
// its mesh links with it — the survivors park none to it — while the
// survivors' own link, which said both goodbyes, is parked.
func TestLostMemberGetsNoParkedMeshLink(t *testing.T) {
	tr := Inproc()
	ds, kill := startDaemons(t, tr, "victim", "w1", "w2") // sorted: the victim is worker 0
	f := &Fleet{Transport: tr, Control: "fleet-control", Seed: []string{"victim", "w1", "w2"},
		HeartbeatEvery: 20 * time.Millisecond, PeerTimeout: 400 * time.Millisecond}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()
	want := runUntilParked(t, f, runner, sc, flat, ds[1], "victim")
	runUntilParked(t, f, runner, sc, flat, ds[2], "victim")
	plan, _ := holdOpen(t, sc, 3, 300000, 0)
	inFlight := make(chan error, 1)
	var got *exec.Result
	go func() {
		var err error
		got, err = f.Run(ctx, &exec.Runner{Inputs: runner.Inputs, Faults: plan}, sc, flat)
		inFlight <- err
	}()
	// The held run has leased the links to the victim: what is parked to
	// it after the kill, the held run parked.
	for deadline := time.Now().Add(5 * time.Second); parkedTo(&ds[1].idle, "victim")+parkedTo(&ds[2].idle, "victim") > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held run never leased its links to the victim")
		}
	}
	kill[0]()
	select {
	case err := <-inFlight:
		if err != nil {
			t.Fatalf("run in flight at the kill: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run in flight at the kill never returned")
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) || !reflect.DeepEqual(got.Printed, want.Printed) {
		t.Errorf("run recovered from the kill: outputs %v printed %q, want %v %q", got.Outputs, got.Printed, want.Outputs, want.Printed)
	}
	waitNoWorkerRuns(t, 5*time.Second)
	for _, i := range []int{1, 2} {
		if n := parkedTo(&ds[i].idle, "victim"); n != 0 {
			t.Errorf("daemon w%d parked %d mesh links to the lost member", i, n)
		}
	}
	// (Two when the held attempt ended and the fleet ran it again.)
	if n := parkedTo(&ds[2].idle, "w1"); n == 0 {
		t.Error("the survivors' mesh link was not parked")
	}
}

// soleUser wraps a transport and fails the test when a mesh Hello goes
// out on a connection it dialled while another run is still on it: a
// connection is a run's from its Hello to this side's goodbye, or to the
// refusal it reads.
type soleUser struct {
	Transport
	t *testing.T
}

func (s soleUser) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := s.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &soleConn{Conn: c, t: s.t}, nil
}

type soleConn struct {
	Conn
	t    *testing.T
	busy atomic.Bool
}

func (c *soleConn) WriteFrame(f Frame) error {
	switch f.Type {
	case THello:
		if c.busy.Swap(true) {
			c.t.Error("a mesh Hello went out on a connection another run is still on")
		}
	case TBye:
		c.busy.Store(false)
	}
	return c.Conn.WriteFrame(f)
}

func (c *soleConn) ReadFrame() (Frame, error) {
	f, err := c.Conn.ReadFrame()
	if err == nil && f.Type == TError {
		c.busy.Store(false)
	}
	return f, err
}

// TestConcurrentRunsNeverShareAMeshLink: waves of concurrent runs on one
// daemon pair each open on a connection of their own — leased or dialled
// — and every run is the solo run.
func TestConcurrentRunsNeverShareAMeshLink(t *testing.T) {
	tr := Inproc()
	meshDials := &wireCount{Transport: soleUser{tr, t}}
	startDaemons(t, meshDials, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()
	want, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	const waves, perWave = 5, 4
	for w := 0; w < waves; w++ {
		res := make(chan *exec.Result, perWave)
		for i := 0; i < perWave; i++ {
			go func() {
				r, err := f.Run(ctx, runner, sc, flat)
				if err != nil {
					t.Errorf("wave %d: %v", w, err)
				}
				res <- r
			}()
		}
		for i := 0; i < perWave; i++ {
			if r := <-res; r != nil && (!reflect.DeepEqual(r.Outputs, want.Outputs) || !reflect.DeepEqual(r.Printed, want.Printed)) {
				t.Errorf("wave %d: outputs %v printed %q, want %v %q", w, r.Outputs, r.Printed, want.Outputs, want.Printed)
			}
		}
	}
	n := meshDials.dialled("w0")
	t.Logf("%d runs, %d at a time, made %d mesh dials", 1+waves*perWave, perWave, n)
	if n >= waves*perWave {
		t.Errorf("%d mesh dials for %d runs: no run reused a link", n, 1+waves*perWave)
	}
}

// TestFleetMemberKilledMidRun stages the ordering that once surfaced a
// bare error: a member dies while a run placed on it is in flight and a
// second run is about to start. The run in flight recovers on the
// survivor (or is retried there); the next run finds the death at its
// connect, drops the member and is placed again. Neither caller sees an
// error.
func TestFleetMemberKilledMidRun(t *testing.T) {
	tr := Inproc()
	_, kill := startDaemons(t, tr, "w0", "victim")
	f := &Fleet{Transport: tr, Control: "fleet-control", Seed: []string{"w0", "victim"},
		HeartbeatEvery: 20 * time.Millisecond, PeerTimeout: 400 * time.Millisecond}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()
	want, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	// The first run's sessions may still be tearing down; the count below
	// must be the held run's alone.
	waitNoWorkerRuns(t, 5*time.Second)
	// Hold a cross-worker message so the run is still open when the
	// victim goes.
	plan, _ := holdOpen(t, sc, 2, 300000, -1)
	held := &exec.Runner{Inputs: runner.Inputs, Faults: plan}
	inFlight := make(chan error, 1)
	var got *exec.Result
	go func() {
		var err error
		got, err = f.Run(ctx, held, sc, flat)
		inFlight <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); activeWorkerRuns.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held run never reached both daemons")
		}
	}
	kill[1]()
	next, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatalf("run started after the kill: %v", err)
	}
	select {
	case err := <-inFlight:
		if err != nil {
			t.Fatalf("run in flight at the kill: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run in flight at the kill never returned")
	}
	for name, res := range map[string]*exec.Result{"in flight": got, "next": next} {
		if !reflect.DeepEqual(res.Outputs, want.Outputs) || !reflect.DeepEqual(res.Printed, want.Printed) {
			t.Errorf("run %s at the kill: outputs %v printed %q, want %v %q", name, res.Outputs, res.Printed, want.Outputs, want.Printed)
		}
	}
	if n := f.Size(); n != 1 {
		t.Errorf("fleet size %d after the kill, want 1", n)
	}
	waitNoWorkerRuns(t, 5*time.Second)
}

// slowClose is a transport whose listeners take 50 ms to close. It
// stamps when a listener's close finished and when each connection it
// accepted was closed.
type slowClose struct {
	Transport
	mu             sync.Mutex
	listenerClosed time.Time
	connsClosed    []time.Time
}

type slowListener struct {
	Listener
	t *slowClose
}

type stampedConn struct {
	Conn
	t *slowClose
}

func (t *slowClose) Listen(addr string) (Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return slowListener{l, t}, nil
}

func (l slowListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return stampedConn{c, l.t}, nil
}

func (l slowListener) Close() error {
	time.Sleep(50 * time.Millisecond)
	err := l.Listener.Close()
	l.t.mu.Lock()
	if l.t.listenerClosed.IsZero() {
		l.t.listenerClosed = time.Now()
	}
	l.t.mu.Unlock()
	return err
}

func (c stampedConn) Close() error {
	c.t.mu.Lock()
	c.t.connsClosed = append(c.t.connsClosed, time.Now())
	c.t.mu.Unlock()
	return c.Conn.Close()
}

// TestDaemonStopsListeningBeforeItDropsRuns: a daemon that is told to
// stop while it hosts a run closes its listener first and only then
// closes the run's connections, so a fleet that lost the run and
// re-dials the member cannot reach it any more.
func TestDaemonStopsListeningBeforeItDropsRuns(t *testing.T) {
	tr := Inproc()
	slow := &slowClose{Transport: tr}
	startDaemon(t, tr, "w0")
	_, stop := startDaemon(t, slow, "victim")
	f := &Fleet{Transport: tr, Control: "fleet-control", Seed: []string{"w0", "victim"},
		HeartbeatEvery: 20 * time.Millisecond, PeerTimeout: 400 * time.Millisecond}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	sc, flat, runner := warmDesign(t)
	plan, _ := holdOpen(t, sc, 2, 300000, -1)
	inFlight := make(chan error, 1)
	go func() {
		_, err := f.Run(context.Background(), &exec.Runner{Inputs: runner.Inputs, Faults: plan}, sc, flat)
		inFlight <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); activeWorkerRuns.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the held run never reached both daemons")
		}
	}
	stopAt := time.Now()
	stop()
	slow.mu.Lock()
	for _, at := range slow.connsClosed {
		if at.After(stopAt) && at.Before(slow.listenerClosed) {
			t.Errorf("a run connection closed %v into the shutdown, before the listener finished closing at %v",
				at.Sub(stopAt), slow.listenerClosed.Sub(stopAt))
		}
	}
	if slow.listenerClosed.IsZero() {
		t.Error("the daemon never closed its listener")
	}
	slow.mu.Unlock()
	select {
	case err := <-inFlight:
		t.Logf("the held run ended: %v", err)
	case <-time.After(20 * time.Second):
		t.Fatal("the held run never returned")
	}
	waitNoWorkerRuns(t, 5*time.Second)
}

// TestMeshLinkIsNeverTurnedAway: the dialling worker's start bundle can
// reach it before the dialled worker's own has installed a mesh, and its
// Hello used to be rejected then — costing a back-off during which every
// cross-worker frame took the coordinator relay. The dial now waits for
// the mesh, which goes up before the session can send. Over 200
// back-to-back runs no mesh handshake is rejected and the pair's link is
// dialled once: every later run leases the connection the run before
// parked (a worker that has heard its peer's goodbye does not redial
// it, it parks). What is still relayed is what a worker sends before its
// pair's link is up — the per-link fallback TestDistRelayFallback pins —
// a window the host's scheduler sets, so it is bounded here in aggregate
// and logged, not pinned at zero.
func TestMeshLinkIsNeverTurnedAway(t *testing.T) {
	tr := Inproc()
	var relayed atomic.Int64
	meshDials := &wireCount{Transport: tr}
	logged := captureLog(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	addrs := []string{"w0", "w1"}
	for _, a := range addrs {
		ready := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			ServeWorker(ctx, meshDials, a, WorkerOptions{}, func(string) { close(ready) })
		}()
		<-ready
	}
	defer func() {
		cancel()
		wg.Wait()
	}()
	f := &Fleet{Transport: dataCounting{tr, &relayed}, Control: "fleet-control", Seed: addrs,
		HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 2 * time.Second}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	flat, inputs := distDesign(t, 16, 4)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:2"))
	if err != nil {
		t.Fatal(err)
	}
	workerOf := sched.Place(sc, 2)
	crossing := 0
	for _, m := range sc.Msgs {
		if workerOf[m.FromPE] != workerOf[m.ToPE] {
			crossing++
		}
	}
	const runs = 200
	for i := 0; i < runs; i++ {
		if _, err := f.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	waitNoWorkerRuns(t, 5*time.Second)
	rejected := 0
	for _, r := range logged.records() {
		if errors.Is(r.err(), errRefused) {
			rejected++
			t.Log(r.Msg, r.err())
		}
	}
	if rejected != 0 {
		t.Errorf("%d mesh handshakes rejected over %d runs, want none", rejected, runs)
	}
	if n := meshDials.dialled("w0"); n > 1 {
		t.Errorf("worker 1 dialled worker 0 %d times over %d sequential runs, want at most once", n, runs)
	}
	n := relayed.Load()
	t.Logf("%d runs of %d cross-worker messages: %d relayed before their link was up", runs, crossing, n)
	if n*4 > int64(runs*crossing) {
		t.Errorf("%d of %d cross-worker messages took the relay: the mesh is not carrying the runs", n, runs*crossing)
	}
}

// TestParkedLinksEndWithTheirDaemon: a daemon that shuts down closes the
// connections parked on it, and a link parked on the fleet's side holds
// no run-table slot and outlives the daemon's handshake patience.
func TestParkedLinksEndWithTheirDaemon(t *testing.T) {
	tr := Inproc()
	_, kill := startDaemons(t, tr, "w0")
	f := startFleet(t, tr, []string{"w0"})
	sc, flat, runner := warmDesign(t)
	if _, err := f.Run(context.Background(), runner, sc, flat); err != nil {
		t.Fatal(err)
	}
	waitNoWorkerRuns(t, 5*time.Second)
	if n := parked(&f.idle); n != 1 {
		t.Fatalf("%d links parked after a run, want 1", n)
	}
	c := f.idle.lease("w0")
	if c == nil {
		t.Fatal("no parked link to lease")
	}
	kill[0]()
	if _, err := handshake(c, Hello{Proto: ProtoVersion, Run: "after-shutdown"}); err == nil {
		t.Error("a link parked on a daemon that shut down still answers")
	}
	c.Close()
}
