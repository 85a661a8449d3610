package exec

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestMailboxPutNeverBlocks: with nobody consuming, any number of puts
// return — there is no capacity to run out of — and come back in order.
func TestMailboxPutNeverBlocks(t *testing.T) {
	const n = 100_000
	b := newMailbox(new(atomic.Int64))
	filled := make(chan struct{})
	go func() {
		for i := 0; i < n; i++ {
			b.put(xmsg{seq: uint64(i)})
		}
		close(filled)
	}()
	select {
	case <-filled:
	case <-time.After(10 * time.Second):
		t.Fatal("put blocked with no consumer")
	}
	for i := 0; i < n; i++ {
		m, ok, _ := b.take()
		if !ok || m.seq != uint64(i) {
			t.Fatalf("take %d: got seq %d, ok %v", i, m.seq, ok)
		}
	}
	if _, ok, _ := b.take(); ok {
		t.Fatal("take from a drained mailbox returned a message")
	}
}

// TestMailboxFIFOPerProducer: eight producers racing one consumer; each
// producer's messages must come out in the order it put them.
func TestMailboxFIFOPerProducer(t *testing.T) {
	const producers, each = 8, 5000
	b := newMailbox(new(atomic.Int64))
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= each; i++ {
				b.put(xmsg{fromPE: p, seq: uint64(i)})
			}
		}(p)
	}
	last := make([]uint64, producers)
	deadline := time.After(20 * time.Second)
	for got := 0; got < producers*each; {
		m, ok, _ := b.take()
		if !ok {
			select {
			case <-b.ready:
			case <-deadline:
				t.Fatalf("consumer starved after %d of %d messages", got, producers*each)
			}
			continue
		}
		if m.seq != last[m.fromPE]+1 {
			t.Fatalf("producer %d: seq %d after %d", m.fromPE, m.seq, last[m.fromPE])
		}
		last[m.fromPE] = m.seq
		got++
	}
	wg.Wait()
}

// TestMailboxTakeReleasesPayload: a popped slot keeps no reference to
// the value it held, and a drained queue starts over at the front of
// its backing array.
func TestMailboxTakeReleasesPayload(t *testing.T) {
	b := newMailbox(new(atomic.Int64))
	for i := 0; i < 3; i++ {
		b.put(xmsg{name: &msgKey{"a", "b", "v"}, val: pits.Num(i), seq: uint64(i + 1), ack: make(chan struct{}, 1)})
	}
	if _, ok, _ := b.take(); !ok {
		t.Fatal("take failed")
	}
	if !reflect.DeepEqual(b.q[0], xmsg{}) {
		t.Errorf("popped slot still holds %+v", b.q[0])
	}
	if b.head != 1 || len(b.q) != 3 {
		t.Errorf("after one take: head %d, len %d; want 1, 3", b.head, len(b.q))
	}
	b.take()
	b.take()
	if b.head != 0 || len(b.q) != 0 {
		t.Errorf("drained mailbox not rewound: head %d, len %d", b.head, len(b.q))
	}
	for i, m := range b.q[:cap(b.q)] {
		if !reflect.DeepEqual(m, xmsg{}) {
			t.Errorf("backing slot %d still holds %+v", i, m)
		}
	}
}

// TestMailboxNoLostWakeup: the consumer's empty take races the
// producer's next put on every round; a put whose token the consumer
// missed would park it forever.
func TestMailboxNoLostWakeup(t *testing.T) {
	const rounds = 10_000
	b := newMailbox(new(atomic.Int64))
	got := make(chan uint64)
	go func() {
		for n := 0; n < rounds; {
			m, ok, _ := b.take()
			if !ok {
				<-b.ready
				continue
			}
			n++
			got <- m.seq
		}
	}()
	for i := uint64(0); i < rounds; i++ {
		b.put(xmsg{seq: i})
		select {
		case seq := <-got:
			if seq != i {
				t.Fatalf("round %d delivered seq %d", i, seq)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("lost wake-up in round %d", i)
		}
	}
}

// testPlane is a RemotePlane that swallows remote deliveries and turns
// the session's idle/crash reports into channel events a test can wait on.
type testPlane struct {
	idle  chan struct{}
	crash chan int
}

func newTestPlane() *testPlane {
	return &testPlane{idle: make(chan struct{}, 16), crash: make(chan int, 16)}
}

func (p *testPlane) DeliverRemote(RemoteMsg) error { return nil }
func (p *testPlane) FlushRemote()                  {}
func (p *testPlane) LocalIdle()                    { p.idle <- struct{}{} }
func (p *testPlane) LocalCrash(pe int)             { p.crash <- pe }

func waitEvent[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// TestDeliverAfterRunEnds pins the end-of-run contract of Deliver now
// that no select decides it: a delivery after a clean finish is dropped
// silently, one after an abort reports the abort — every time.
func TestDeliverAfterRunEnds(t *testing.T) {
	s, flat := chainSchedule(t)
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
	u := RemoteMsg{From: "a", To: "b", Var: "u", FromPE: 0, ToPE: 1, Seq: 1<<32 | 1, Val: pits.Num(10)}

	t.Run("finish", func(t *testing.T) {
		pl := newTestPlane()
		ses, err := r.StartSession(s, flat, []bool{false, true}, pl)
		if err != nil {
			t.Fatal(err)
		}
		if err := ses.Deliver(u); err != nil {
			t.Fatalf("delivery during the run: %v", err)
		}
		waitEvent(t, pl.idle, "PE 1 to run b and go idle")
		ses.FinishRun()
		if err := ses.Deliver(u); err != nil {
			t.Errorf("delivery after FinishRun: %v, want nil", err)
		}
		if n := len(ses.workers[1].inbox.q); n != 0 {
			t.Errorf("late delivery was queued (%d in mailbox), want dropped", n)
		}
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("abort", func(t *testing.T) {
		for i := 0; i < 50; i++ {
			ses, err := r.StartSession(s, flat, []bool{false, true}, newTestPlane())
			if err != nil {
				t.Fatal(err)
			}
			ses.Abort(errors.New("boom"))
			if err := ses.Deliver(u); err == nil || !strings.Contains(err.Error(), "aborted") {
				t.Fatalf("round %d: delivery after Abort: %v, want the abort", i, err)
			}
			if _, err := ses.Wait(); err == nil || !strings.Contains(err.Error(), "boom") {
				t.Fatalf("round %d: Wait: %v, want the abort's root cause", i, err)
			}
		}
	})
}

// TestDeadMailboxAbsorbsRetransmissions: PE 1 crashes before reading
// anything, so a->b:u and its retransmissions pile up in a mailbox
// nobody will ever drain. The sender must not block on it, the backlog
// must end with the era, and recovery must still produce the fault-free
// outputs.
func TestDeadMailboxAbsorbsRetransmissions(t *testing.T) {
	s, flat := chainSchedule(t)
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Inputs: inputs, Faults: plan,
		Retry: true, RetryBase: time.Millisecond, RetryCap: 4 * time.Millisecond,
	}
	pl := newTestPlane()
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if pe := waitEvent(t, pl.crash, "the injected crash"); pe != 1 {
		t.Fatalf("PE %d crashed, want PE 1", pe)
	}
	// The crashed worker's goroutine is gone, so this test is the only
	// reader of its wake-up token: two tokens are at least two copies,
	// the original and a retransmission.
	dead := ses.workers[1].inbox
	waitEvent(t, dead.ready, "a->b:u in the dead PE's mailbox")
	waitEvent(t, dead.ready, "a retransmission of a->b:u")

	st, err := ses.Pause(false)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := PlanResume(s, flat, Barrier{Epoch: 1, Dead: []bool{false, true},
		Parked: []*PauseState{st}, Cause: "recovery"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ses.Resume(rp); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.idle, "the survivor to finish the replanned work")
	ses.FinishRun()
	p, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	outputs, _, err := MergePartials(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(outputs, want.Outputs) {
		t.Errorf("outputs diverged:\n got %v\nwant %v", outputs, want.Outputs)
	}
	retries := 0
	for _, ev := range p.Events {
		if ev.Kind == trace.MsgRetry {
			retries++
		}
	}
	// Wait has joined the retry goroutines, so the backlog is final:
	// the original and every recorded retransmission, none consumed.
	if got := len(dead.q) - dead.head; got < 2 || got > retries+1 {
		t.Errorf("dead mailbox holds %d copies after %d recorded retries, want 2..retries+1", got, retries)
	}
}

// TestStarvedGuards drives the starvation decision on a session that
// was built but never launched, one guard at a time: nothing busy and a
// worker blocked is a deadlock only when the session hosts the whole
// machine, no crash awaits its replan, the barrier is not forming and
// no delivery is still owed.
func TestStarvedGuards(t *testing.T) {
	s, flat := chainSchedule(t)
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
	cases := []struct {
		name     string
		hosted   []bool
		prepare  func(c *controller)
		deadlock bool
	}{
		{"blocked", []bool{true, true}, func(*controller) {}, true},
		{"nothing-blocked", []bool{true, true}, func(c *controller) { c.workers[1].awaiting.Store(nil) }, false},
		{"share-of-machine", []bool{false, true}, func(*controller) {}, false},
		{"crash-awaits-resume", []bool{true, true}, func(c *controller) { c.crashed.Store(true) }, false},
		{"pause-closed", []bool{true, true}, func(c *controller) { close(c.era.Load().pause) }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ses, err := r.buildSession(s, flat, tc.hosted, newTestPlane())
			if err != nil {
				t.Fatal(err)
			}
			c := ses.ctrl
			c.workers[1].awaiting.Store(&awaited{msgKey{"a", "b", "u"}, 0})
			tc.prepare(c)
			c.busy.Store(1)
			c.retire()
			select {
			case <-c.done:
				if !tc.deadlock {
					t.Fatalf("declared a deadlock: %v", c.runErr)
				}
				if want := "exec: run deadlocked: PE 1 waits for a->b:u from PE 0"; c.runErr.Error() != want {
					t.Errorf("report %q, want %q", c.runErr, want)
				}
			default:
				if tc.deadlock {
					t.Fatal("no deadlock declared")
				}
			}
		})
	}

	t.Run("delivery-owed", func(t *testing.T) {
		ses, err := r.buildSession(s, flat, []bool{true, true}, newTestPlane())
		if err != nil {
			t.Fatal(err)
		}
		c := ses.ctrl
		c.busy.Store(1) // PE 1 running; PE 0 through its list
		held := make(chan struct{})
		c.later(0, func() { <-held })
		w := c.workers[1]
		w.awaiting.Store(&awaited{msgKey{"a", "b", "u"}, 0})
		if _, ok, last := w.inbox.take(); ok || last {
			t.Fatalf("empty take with a delivery owed: ok %v, last %v", ok, last)
		}
		select {
		case <-c.done:
			t.Fatalf("declared a deadlock with a delivery owed: %v", c.runErr)
		default:
		}
		close(held) // the owed delivery gives up: now it is a deadlock
		c.bg.Wait()
		select {
		case <-c.done:
		default:
			t.Fatal("no deadlock declared once the owed delivery retired")
		}
	})
}

// recordPlane is a testPlane that keeps what it is asked to deliver.
type recordPlane struct {
	*testPlane
	mu   sync.Mutex
	sent []RemoteMsg
}

func (p *recordPlane) DeliverRemote(m RemoteMsg) error {
	p.mu.Lock()
	p.sent = append(p.sent, m)
	p.mu.Unlock()
	return nil
}

// flushPlane is a testPlane that logs deliveries and flushes in order,
// and reports each flush on flushed.
type flushPlane struct {
	*testPlane
	flushed chan struct{}
	mu      sync.Mutex
	log     []string
}

func (p *flushPlane) DeliverRemote(m RemoteMsg) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = append(p.log, fmt.Sprintf("deliver %s->%s:%s", m.From, m.To, m.Var))
	return nil
}

func (p *flushPlane) FlushRemote() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.log = append(p.log, "flush")
	p.flushed <- struct{}{}
}

// TestFlushEndsBurstsThatReachedThePlane: a session hosting PEs 0 and 2
// of the diamond flushes its plane once per burst that handed it a
// message — a's sends, or the delayed delivery that replaces them — and
// never after c, whose one send stays in the session.
func TestFlushEndsBurstsThatReachedThePlane(t *testing.T) {
	flat := diamondDesign(t)
	m := testMachine(t, "full:3", params())
	s := &sched.Schedule{
		Graph: flat.Graph, Machine: m, Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 11},
			{Task: "b", PE: 1, Start: 17, Finish: 28},
			{Task: "c", PE: 2, Start: 17, Finish: 28},
			{Task: "d", PE: 0, Start: 34, Finish: 45},
		},
		Msgs: []sched.Msg{
			{Var: "u", From: "a", To: "b", FromPE: 0, ToPE: 1, Words: 1, Send: 11, Recv: 17, Hops: 1},
			{Var: "u", From: "a", To: "c", FromPE: 0, ToPE: 2, Words: 1, Send: 11, Recv: 17, Hops: 1},
			{Var: "v", From: "b", To: "d", FromPE: 1, ToPE: 0, Words: 1, Send: 28, Recv: 34, Hops: 1},
			{Var: "w", From: "c", To: "d", FromPE: 2, ToPE: 0, Words: 1, Send: 28, Recv: 34, Hops: 1},
		},
	}
	s.Finalize()
	for _, faults := range []string{"", "delay:a->b:u@1"} {
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Stats: &Stats{}}
		if faults != "" {
			plan, err := ParseFaults(faults)
			if err != nil {
				t.Fatal(err)
			}
			r.Faults = plan
		}
		pl := &flushPlane{testPlane: newTestPlane(), flushed: make(chan struct{}, 16)}
		ses, err := r.StartSession(s, flat, []bool{true, false, true}, pl)
		if err != nil {
			t.Fatal(err)
		}
		// Play PE 1: b's result for d.
		v := RemoteMsg{From: "b", To: "d", Var: "v", FromPE: 1, ToPE: 0, Seq: 2<<32 | 1, Val: pits.Num(11)}
		if err := ses.Deliver(v); err != nil {
			t.Fatal(err)
		}
		// A delayed delivery owed when the run finishes is moot: wait for
		// the flush before finishing.
		waitEvent(t, pl.flushed, "the flush of a's burst")
		waitEvent(t, pl.idle, "PEs 0 and 2 to finish their lists")
		ses.FinishRun()
		if _, err := ses.Wait(); err != nil {
			t.Fatal(err)
		}
		pl.mu.Lock()
		got := strings.Join(pl.log, ", ")
		pl.mu.Unlock()
		if want := "deliver a->b:u, flush"; got != want {
			t.Errorf("%q: plane saw %q, want %q", faults, got, want)
		}
		if st := r.Stats.Snapshot(); st.RemoteSends != 1 || st.RemoteFlushes != 1 {
			t.Errorf("%q: RemoteSends %d, RemoteFlushes %d, want 1 and 1", faults, st.RemoteSends, st.RemoteFlushes)
		}
	}
}

// TestRevivedProcessorIsRemote: PE 1 crashes here and the resume plan
// has it live again — a joiner took it over. From then on it is not
// hosted: PE 0's re-send of a->b:u must go through the plane, not into
// the dead worker's mailbox.
func TestRevivedProcessorIsRemote(t *testing.T) {
	s, flat := chainSchedule(t)
	plan, err := ParseFaults("crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Faults: plan}
	pl := &recordPlane{testPlane: newTestPlane()}
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.crash, "the injected crash")
	// The crashed worker's goroutine is gone, so this test is the only
	// reader of its wake-up token: once it shows, a has run on PE 0.
	dead := ses.workers[1].inbox
	waitEvent(t, dead.ready, "a->b:u in the dead PE's mailbox")
	st, err := ses.Pause(false)
	if err != nil {
		t.Fatal(err)
	}
	before := len(dead.q) - dead.head
	// The plan a join would bring: a's result survives on PE 0, b runs
	// on the revived PE 1 (PlanResume, free to choose, would move b).
	if pe, held := st.Done["a"]; !held || pe != 0 || len(st.Dead) != 1 || st.Dead[0] != 1 {
		t.Fatalf("pause state %+v, want a held on PE 0 and PE 1 dead", st)
	}
	rp := &ResumePlan{Epoch: 1, Slots: s.Slots[1:], Msgs: s.Msgs,
		Done: map[graph.NodeID]int{"a": 0}, Dead: []bool{false, false}}
	if err := ses.Resume(rp); err != nil {
		t.Fatal(err)
	}
	if ses.ctrl.isLocal(1) {
		t.Error("PE 1 still counts as hosted after a joiner revived it")
	}
	// Play the joiner: answer with b's result so PE 0 can finish.
	v := RemoteMsg{From: "b", To: "d", Var: "v", FromPE: 1, ToPE: 0, Seq: 2<<32 | 1, Epoch: 1, Val: pits.Num(11)}
	if err := ses.Deliver(v); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.idle, "PE 0 to finish its list")
	ses.FinishRun()
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if len(pl.sent) != 1 || pl.sent[0].Var != "u" || pl.sent[0].ToPE != 1 || pl.sent[0].Epoch != 1 {
		t.Errorf("plane was handed %+v, want the era-1 re-send of a->b:u to PE 1", pl.sent)
	}
	if after := len(dead.q) - dead.head; after != before {
		t.Errorf("dead mailbox grew from %d to %d messages after the resume", before, after)
	}
}

// gatePlane is a testPlane whose remote deliveries report themselves,
// wait for the test to open the gate, and then fail, the way a delivery
// fails on a link its peer has already dropped.
type gatePlane struct {
	*testPlane
	calls chan RemoteMsg
	gate  chan struct{}
}

func (p *gatePlane) DeliverRemote(m RemoteMsg) error {
	p.calls <- m
	<-p.gate
	return errors.New("peer dropped the link")
}

// TestDelayedDeliveryOutlivesItsEra: PE 0 sends a->b:u to the remote
// PE 1 under a delay fault, then crashes. The delayed delivery is still
// in flight when the recovery barrier forms, and it fails there: the
// peer has given up this session's only processor and dropped its link.
// The replan owes PE 1 nothing from era 0, so the run must not fail.
func TestDelayedDeliveryOutlivesItsEra(t *testing.T) {
	s, flat := chainSchedule(t)
	plan, err := ParseFaults("crash:0@1,delay:a->b:u@1")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Faults: plan}
	pl := &gatePlane{testPlane: newTestPlane(), calls: make(chan RemoteMsg, 1), gate: make(chan struct{})}
	ses, err := r.StartSession(s, flat, []bool{true, false}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if m := waitEvent(t, pl.calls, "the delayed delivery of a->b:u"); m.Var != "u" || m.Epoch != 0 {
		t.Fatalf("plane was handed %+v, want era 0's a->b:u", m)
	}
	waitEvent(t, pl.crash, "the injected crash")
	if _, err := ses.Pause(false); err != nil {
		t.Fatal(err)
	}
	close(pl.gate) // the barrier has formed: now the delivery fails
	var onPE1 []sched.Slot
	for _, sl := range s.Slots {
		sl.PE = 1
		onPE1 = append(onPE1, sl)
	}
	rp := &ResumePlan{Epoch: 1, Slots: onPE1, Done: map[graph.NodeID]int{}, Dead: []bool{true, false}}
	if err := ses.Resume(rp); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.idle, "the session to report nothing left to run")
	ses.FinishRun()
	if _, err := ses.Wait(); err != nil {
		t.Fatalf("a delivery the replan gave up failed the run: %v", err)
	}
}
