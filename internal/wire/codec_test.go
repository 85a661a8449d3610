package wire

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

func TestValueRoundTrip(t *testing.T) {
	values := []pits.Value{
		pits.Num(0),
		pits.Num(-3.25),
		pits.Num(math.Inf(1)),
		pits.Num(math.Inf(-1)),
		pits.Num(math.MaxFloat64),
		pits.Num(math.SmallestNonzeroFloat64),
		pits.Vec{},
		pits.Vec{1.5, math.Inf(1), -0.0},
		pits.BoolV(true),
		pits.BoolV(false),
		pits.StrV(""),
		pits.StrV("hello, wire ✓"),
	}
	for _, v := range values {
		b, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
		got, rest, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("decode %v: %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("decode %v left %d trailing bytes", v, len(rest))
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip: got %#v want %#v", got, v)
		}
	}

	// NaN != NaN, so it needs its own check: the bit pattern survives.
	b, err := AppendValue(nil, pits.Num(math.NaN()))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeValue(b)
	if err != nil {
		t.Fatal(err)
	}
	if n, ok := got.(pits.Num); !ok || !math.IsNaN(float64(n)) {
		t.Errorf("NaN did not survive the wire: %#v", got)
	}
}

func TestEnvRoundTripDeterministic(t *testing.T) {
	env := pits.Env{
		"x":   pits.Num(3),
		"vec": pits.Vec{1, 2, 3},
		"ok":  pits.BoolV(true),
		"s":   pits.StrV("text"),
	}
	b1, err := EncodeEnv(env)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeEnv(env)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b1, b2) {
		t.Error("identical environments encoded to different bytes")
	}
	got, err := DecodeEnv(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, env) {
		t.Errorf("round trip: got %#v want %#v", got, env)
	}
}

func TestMsgRoundTripAndDest(t *testing.T) {
	m := exec.RemoteMsg{
		From: "producer", To: "consumer", Var: "u",
		FromPE: 3, ToPE: 5, Seq: 77, Epoch: 2,
		At: machine.Time(1234), Sum: 0xdeadbeef,
		Val: pits.Vec{1, math.Inf(-1), 3},
	}
	b, err := AppendMsg(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	dest, err := MsgDest(b)
	if err != nil {
		t.Fatal(err)
	}
	if dest != m.ToPE {
		t.Errorf("MsgDest = %d, want %d", dest, m.ToPE)
	}
	got, err := DecodeMsg(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Errorf("round trip:\n got %#v\nwant %#v", got, m)
	}

	if _, err := DecodeMsg(b[:20]); err == nil {
		t.Error("truncated message decoded without error")
	}
	if _, err := DecodeMsg(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	flat, _ := distDesign(t, 3, 3)
	m := distMachine(t, "hypercube:3")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	// The JSON form is canonical and deterministic; byte-equal marshals
	// mean the graph, machine, slots and messages all survived.
	wantJSON, err := sc.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := got.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("round trip changed the schedule:\n got %s\nwant %s", gotJSON, wantJSON)
	}

	if _, err := DecodeSchedule(b[:len(b)/2]); err == nil {
		t.Error("truncated schedule decoded without error")
	}
	if _, err := DecodeSchedule(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("trailing bytes decoded without error")
	}
	if _, err := DecodeSchedule([]byte{99}); err == nil {
		t.Error("unknown codec version decoded without error")
	}
}

// outOfRangeSchedules encodes ETF schedules on ring:4 — homogeneous
// and with per-processor speeds — each broken by one slot or message
// naming a processor the machine does not have: the schedule bytes a
// corrupted or hostile start bundle carries.
func outOfRangeSchedules(t testing.TB) map[string][]byte {
	t.Helper()
	flat, _ := distDesign(t, 2, 2)
	out := map[string][]byte{}
	for _, speeds := range [][]int64{nil, {1, 2, 1, 2}} {
		m := distMachine(t, "ring:4")
		if speeds != nil {
			if err := m.SetSpeeds(speeds); err != nil {
				t.Fatal(err)
			}
		}
		for name, mutate := range map[string]func(s *sched.Schedule){
			"slot on PE 99":      func(s *sched.Schedule) { s.Slots[0].PE = 99 },
			"slot on PE -1":      func(s *sched.Schedule) { s.Slots[len(s.Slots)-1].PE = -1 },
			"message from PE 99": func(s *sched.Schedule) { s.Msgs[0].FromPE = 99 },
			"message to PE 99":   func(s *sched.Schedule) { s.Msgs[0].ToPE = 99 },
		} {
			sc, err := sched.ETF{}.Schedule(flat.Graph, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Msgs) == 0 {
				t.Fatal("ETF sent no messages on ring:4")
			}
			broken := &sched.Schedule{Graph: sc.Graph, Machine: sc.Machine, Algorithm: sc.Algorithm,
				Slots: append([]sched.Slot(nil), sc.Slots...), Msgs: append([]sched.Msg(nil), sc.Msgs...)}
			mutate(broken)
			b, err := EncodeSchedule(broken)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s, speeds %v", name, speeds)] = b
		}
	}
	return out
}

// TestDecodeScheduleRejectsProcessorsOutsideTheMachine: a start bundle
// whose schedule names a processor outside its machine is refused with
// an error; decoding it must not panic the worker daemon.
func TestDecodeScheduleRejectsProcessorsOutsideTheMachine(t *testing.T) {
	for name, b := range outOfRangeSchedules(t) {
		if _, err := DecodeSchedule(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// eventsOnBothEnds returns an ETF schedule of the 3x3 calculator as its
// coordinator holds it, and the graph a daemon decodes from its start
// bundle: the two ends of an event list.
func eventsOnBothEnds(t testing.TB) (coord *sched.Schedule, daemon *graph.Graph) {
	t.Helper()
	flat, _ := distDesign(t, 3, 3)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:3"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSchedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	held, err := DecodeSchedule(b)
	if err != nil {
		t.Fatal(err)
	}
	return sc, held.Graph
}

// randomEvents draws n events of every kind over g's tasks and their
// variables, with names g does not hold, empty strings and extreme
// numbers mixed in.
func randomEvents(rng *rand.Rand, g *graph.Graph, n int) []trace.Event {
	pick := func(opts ...string) string { return opts[rng.Intn(len(opts))] }
	nodes := g.Nodes()
	evs := make([]trace.Event, n)
	for i := range evs {
		e := &evs[i]
		e.Kind = trace.Kinds()[rng.Intn(len(trace.Kinds()))]
		e.At = machine.Time(rng.Int63n(1<<40) - 1<<20)
		switch rng.Intn(4) {
		case 0:
			e.Task = graph.NodeID(pick("", "not-in-graph", "t0_0/x"))
		default:
			e.Task = nodes[rng.Intn(len(nodes))].ID
		}
		var vars []string
		for _, a := range g.SuccArcs(e.Task) {
			vars = append(vars, a.Var)
		}
		e.Var = pick(append(vars, "", "nowhere", "x")...)
		e.PE, e.Peer = rng.Intn(9)-1, rng.Intn(9)-1
		e.Seq = rng.Uint64() >> uint(rng.Intn(64))
		e.Dup = rng.Intn(2) == 0
		e.Note = pick("", "", "crash", "attempt 1", "127.0.0.1:4000")
		e.Bytes = rng.Int63() >> uint(rng.Intn(63)) * int64(1-2*rng.Intn(2))
	}
	return evs
}

// TestEventsRoundTrip: events encoded against the daemon's decoded copy
// of the schedule's graph decode on the coordinator's to what was sent,
// whatever their kind and whether or not the graph holds their names;
// the decoded names of known tasks and variables are the graph's own
// strings. A truncated list or one with bytes to spare is an error.
func TestEventsRoundTrip(t *testing.T) {
	sc, daemon := eventsOnBothEnds(t)
	evs := randomEvents(rand.New(rand.NewSource(1)), sc.Graph, 2000)
	b := encodeEvents(evs, NewNameIndex(daemon))
	got, err := AppendEvents(nil, b, sc.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("round trip changed the events")
	}
	for i, e := range got {
		if n := sc.Graph.Node(e.Task); n != nil && unsafe.StringData(string(e.Task)) != unsafe.StringData(string(n.ID)) {
			t.Fatalf("event %d: task %s decoded to a copy, not the graph's string", i, e.Task)
		}
	}

	empty, err := AppendEvents(nil, encodeEvents(nil, nil), sc.Graph)
	if err != nil || len(empty) != 0 {
		t.Errorf("empty event list decoded to %d events, %v", len(empty), err)
	}
	if _, err := AppendEvents(nil, b[:len(b)-3], sc.Graph); err == nil {
		t.Error("truncated events decoded without error")
	}
	if _, err := AppendEvents(nil, append(b, 0), sc.Graph); err == nil {
		t.Error("events with a trailing byte decoded without error")
	}
}

func TestRunOptsRoundTrip(t *testing.T) {
	plan, err := exec.ParseFaults("crash:1@2,drop:a->b:u")
	if err != nil {
		t.Fatal(err)
	}
	r := &exec.Runner{VirtualTime: true, Retry: true, MaxSteps: 1 << 20, Faults: plan}
	got, err := OptsFor(r).Runner()
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualTime != r.VirtualTime || got.Retry != r.Retry || got.MaxSteps != r.MaxSteps {
		t.Errorf("runner knobs did not survive the wire:\n got %+v\nwant %+v", got, r)
	}
	if got.Faults == nil || got.Faults.String() != plan.String() {
		t.Errorf("fault plan did not survive: got %v want %v", got.Faults, plan)
	}
}

// olderCoordinator rewrites the start bundles written on the
// connections it dials into what a coordinator from before the
// per-receive watchdog and the stall timer were retired would have
// sent: the options still carry grace, watchdogMin, noWatchdog and
// stallTimeout.
type olderCoordinator struct {
	Transport
	rewritten *atomic.Int64 // start bundles rewritten
}

func (t olderCoordinator) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return olderCoordinatorConn{c, t.rewritten}, nil
}

type olderCoordinatorConn struct {
	Conn
	rewritten *atomic.Int64
}

func (c olderCoordinatorConn) WriteFrame(f Frame) error {
	if f.Type == TStart {
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return err
		}
		js = bytes.Replace(js, []byte(`"opts":{`), []byte(`"opts":{"grace":2.5,"watchdogMin":500,"noWatchdog":true,"stallTimeout":90000,`), 1)
		f.Payload = encBlobEnvelope(js, blobs...)
		c.rewritten.Add(1)
	}
	return c.Conn.WriteFrame(f)
}

// TestRetiredOptionsAreIgnoredOnTheWire: a start bundle from an older
// coordinator, still carrying the retired watchdog and stall options, decodes on
// today's worker and the run it starts completes with the
// single-process outputs.
func TestRetiredOptionsAreIgnoredOnTheWire(t *testing.T) {
	old := []byte(`{"run":"r","hosted":[true],"opts":{"virtual":true,"grace":2.5,"watchdogMin":500,"noWatchdog":true,"stallTimeout":90000}}`)
	bundle, err := decJSON[StartBundle](old, "start")
	if err != nil {
		t.Fatal(err)
	}
	if want := (RunOpts{VirtualTime: true}); bundle.Opts != want {
		t.Errorf("decoded options %+v, want %+v", bundle.Opts, want)
	}

	flat, inputs := distDesign(t, 4, 3)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:2"))
	if err != nil {
		t.Fatal(err)
	}
	runner := &exec.Runner{Inputs: inputs, VirtualTime: true}
	single, err := runner.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	defer stop()
	var rewritten atomic.Int64
	co := &Coordinator{
		Transport: olderCoordinator{tr, &rewritten}, Addrs: addrs, Runner: runner,
		HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 2 * time.Second,
	}
	dist, err := co.Run(context.Background(), sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	if n := rewritten.Load(); n != 2 {
		t.Errorf("%d start bundles carried the retired options, want one per worker", n)
	}
}

// encodeEvents is the events payload a result envelope carries for evs.
func encodeEvents(evs []trace.Event, ix NameIndex) []byte {
	return appendEvents(nil, evs, ix)[4:]
}

// TestEncodeEventsAllocCeiling guards the largest thing a worker sends,
// its trace: one encoded result is one allocation. Every record names
// its task by position in the flat graph and its variable by the
// position of an arc carrying it, against an index built once per graph,
// so no string table is built per result. The 2 440 events of a
// ring:32 run encode to 39 KB, 16 bytes an event; they took 121 KB,
// 0.29 MB and 35 allocations while a result carried its own string
// table and fixed 46-byte records.
func TestEncodeEventsAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the ceiling is checked without -race")
	}
	flat, inputs := distDesign(t, 20, 25) // 501 tasks
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "ring:32"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&exec.Runner{Inputs: inputs, VirtualTime: true}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	evs, ix := res.Trace.Events, NewNameIndex(flat.Graph)
	b := encodeEvents(evs, ix)
	if got := testing.AllocsPerRun(20, func() { encodeEvents(evs, ix) }); got != 1 {
		t.Errorf("encoding %d events made %.0f allocations, want 1", len(evs), got)
	}
	back, err := AppendEvents(nil, b, flat.Graph)
	if err != nil || !reflect.DeepEqual(back, evs) {
		t.Errorf("encoding does not round-trip: %v", err)
	}
	t.Logf("%d events encode to %d bytes, %.1f per event", len(evs), len(b), float64(len(b))/float64(len(evs)))
}
