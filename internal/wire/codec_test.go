package wire

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
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
	b, err := EncodeMsg(m)
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

func TestEventsRoundTrip(t *testing.T) {
	evs := []trace.Event{
		{Kind: trace.TaskStart, At: 10, Task: "t1", PE: 2},
		{Kind: trace.TaskEnd, At: 25, Task: "t1", PE: 2, Note: "ok"},
		{Kind: trace.MsgSend, At: 26, Task: "t1", PE: 2, Var: "x", Peer: 5, Seq: 7, Bytes: 64},
		{Kind: trace.MsgRecv, At: 31, Task: "t2", PE: 5, Var: "x", Peer: 2, Seq: 7, Dup: true, Bytes: -1},
		{Kind: trace.WireBytes, At: 31, PE: -1, Bytes: 1 << 40},
	}
	got, err := DecodeEvents(EncodeEvents(evs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("round trip:\n got %#v\nwant %#v", got, evs)
	}

	empty, err := DecodeEvents(EncodeEvents(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Errorf("empty event list decoded to %d events", len(empty))
	}

	b := EncodeEvents(evs)
	if _, err := DecodeEvents(b[:len(b)-3]); err == nil {
		t.Error("truncated events decoded without error")
	}
}

func TestRunOptsRoundTrip(t *testing.T) {
	plan, err := exec.ParseFaults("crash:1@2,drop:a->b:u")
	if err != nil {
		t.Fatal(err)
	}
	r := &exec.Runner{VirtualTime: true, Retry: true, RetryBase: 1000, RetryCap: 8000,
		StallTimeout: 90000, MaxSteps: 1 << 20, Faults: plan}
	got, err := OptsFor(r).Runner()
	if err != nil {
		t.Fatal(err)
	}
	if got.VirtualTime != r.VirtualTime || got.Retry != r.Retry ||
		got.RetryBase != r.RetryBase || got.RetryCap != r.RetryCap ||
		got.StallTimeout != r.StallTimeout || got.MaxSteps != r.MaxSteps {
		t.Errorf("runner knobs did not survive the wire:\n got %+v\nwant %+v", got, r)
	}
	if got.Faults == nil || got.Faults.String() != plan.String() {
		t.Errorf("fault plan did not survive: got %v want %v", got.Faults, plan)
	}
}

// olderCoordinator rewrites the start bundles written on the
// connections it dials into what a coordinator from before the
// per-receive watchdog was retired would have sent: the options still
// carry grace, watchdogMin and noWatchdog.
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
		js = bytes.Replace(js, []byte(`"opts":{`), []byte(`"opts":{"grace":2.5,"watchdogMin":500,"noWatchdog":true,`), 1)
		f.Payload = encBlobEnvelope(js, blobs...)
		c.rewritten.Add(1)
	}
	return c.Conn.WriteFrame(f)
}

// TestRetiredOptionsAreIgnoredOnTheWire: a start bundle from an older
// coordinator, still carrying the retired watchdog options, decodes on
// today's worker and the run it starts completes with the
// single-process outputs.
func TestRetiredOptionsAreIgnoredOnTheWire(t *testing.T) {
	old := []byte(`{"run":"r","hosted":[true],"opts":{"virtual":true,"grace":2.5,"watchdogMin":500,"noWatchdog":true,"stallTimeout":90000}}`)
	bundle, err := decJSON[StartBundle](old, "start")
	if err != nil {
		t.Fatal(err)
	}
	if want := (RunOpts{VirtualTime: true, StallTimeout: 90000}); bundle.Opts != want {
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
