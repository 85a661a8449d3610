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
		b.put(xmsg{name: &msgKey{"a", "b", "v"}, val: pits.Num(i), seq: uint64(i + 1)})
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
// the session's reports into channel events a test can wait on: every
// report and probe answer on quiet (dropped once 16 wait unread), and
// an idle report on idle too.
type testPlane struct {
	quiet chan Quiet
	idle  chan struct{}
	crash chan int
}

func newTestPlane() *testPlane {
	return &testPlane{quiet: make(chan Quiet, 16), idle: make(chan struct{}, 16), crash: make(chan int, 16)}
}

func (p *testPlane) DeliverRemote(RemoteMsg) error { return nil }
func (p *testPlane) FlushRemote()                  {}
func (p *testPlane) LocalCrash(pe int)             { p.crash <- pe }
func (p *testPlane) Quiet(q Quiet) {
	select {
	case p.quiet <- q:
	default:
	}
	if !q.Waiting && !q.Answer {
		p.idle <- struct{}{}
	}
}

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
		if n := len(ses.ctrl.workers[1].inbox.q); n != 0 {
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
// anything, so a->b:u lands in a mailbox nobody will ever drain. The
// copy was not faulted, so Retry resends nothing: exactly one copy
// reaches the dead mailbox, it belongs to the era the recovery replaces
// (so it is dropped with that era, never read), the sender does not
// block on it, and recovery still produces the fault-free outputs.
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
	r := &Runner{Inputs: inputs, Faults: plan, Retry: true}
	pl := newTestPlane()
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	if pe := waitEvent(t, pl.crash, "the injected crash"); pe != 1 {
		t.Fatalf("PE %d crashed, want PE 1", pe)
	}
	// The crashed worker's goroutine is gone, so this test is the only
	// reader of its wake-up token.
	dead := ses.ctrl.workers[1].inbox
	waitEvent(t, dead.ready, "a->b:u in the dead PE's mailbox")

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
	for _, ev := range p.Events {
		if ev.Kind == trace.MsgRetry {
			t.Errorf("an unfaulted copy was resent: %+v", ev)
		}
	}
	// Wait has joined every background delivery, so the mailbox is final.
	if got := len(dead.q) - dead.head; got != 1 {
		t.Fatalf("dead mailbox holds %d copies, want exactly 1", got)
	}
	if m := dead.q[dead.head]; m.epoch != 0 || m.val != pits.Num(10) {
		t.Errorf("dead mailbox holds %+v, want era 0's a->b:u = 10", m)
	}
}

// TestStarvedGuards drives a session that was built but never launched
// to the moment its busy count reaches zero, one guard at a time, and
// plays its coordinator: the session reports itself, or stays silent.
// It reports when a worker is blocked and when none is (it is idle),
// hosting the whole machine or a share of it alike, and only once per
// quiet spell; it stays silent while a crash awaits its replan, while
// the barrier forms and while a delivery is still owed. Deciding is the
// run Lifecycle's: nothing here fails the session.
func TestStarvedGuards(t *testing.T) {
	s, flat := chainSchedule(t)
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
	const waits = "PE 1 waits for a->b:u from PE 0"
	// coordinate plays one turn of the session's coordinator loop.
	coordinate := func(c *controller, last *Report) {
		select {
		case <-c.quiet:
			c.tell(last)
		default:
		}
	}
	heard := func(pl *testPlane) (Quiet, bool) {
		select {
		case q := <-pl.quiet:
			return q, true
		default:
			return Quiet{}, false
		}
	}
	cases := []struct {
		name    string
		hosted  []bool
		prepare func(c *controller)
		reports bool
		waiting bool
	}{
		{"blocked", []bool{true, true}, func(*controller) {}, true, true},
		{"nothing-blocked", []bool{true, true}, func(c *controller) { c.workers[1].awaiting.Store(nil) }, true, false},
		{"share-of-machine", []bool{false, true}, func(*controller) {}, true, true},
		{"crash-awaits-resume", []bool{true, true}, func(c *controller) { c.crashed.Store(true) }, false, false},
		{"pause-closed", []bool{true, true}, func(c *controller) { c.era.Load().paused.Store(true) }, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := newTestPlane()
			ses, err := r.buildSession(s, flat, tc.hosted, pl)
			if err != nil {
				t.Fatal(err)
			}
			c := ses.ctrl
			c.workers[1].awaiting.Store(&awaited{msgKey{"a", "b", "u"}, 0})
			tc.prepare(c)
			c.busy.Store(1)
			last := Report{Busy: true}
			c.retire()
			coordinate(c, &last)
			rep, ok := heard(pl)
			if ok != tc.reports {
				t.Fatalf("reported %v (%+v), want %v", ok, rep, tc.reports)
			}
			select {
			case <-c.done:
				t.Fatalf("the session decided for itself: %v", c.runErr)
			default:
			}
			if tc.reports {
				if want := (Report{Waiting: tc.waiting}); rep.Report != want || rep.Answer {
					t.Errorf("report %+v, want %+v", rep, want)
				}
				c.quiesce() // a second wake-up in the same quiet spell
				coordinate(c, &last)
				if again, ok := heard(pl); ok {
					t.Errorf("reported twice in one quiet spell: %+v", again)
				}
			}
			ses.Probe()
			coordinate(c, &last)
			ans, ok := heard(pl)
			if !ok || !ans.Answer {
				t.Fatalf("probe not answered (%+v)", ans)
			}
			if !tc.reports {
				if !ans.Busy {
					t.Errorf("probe answered %+v, want busy", ans)
				}
				return
			}
			if ans.Report != rep.Report {
				t.Errorf("probe answered %+v, want the report %+v", ans, rep)
			}
			if tc.waiting && (len(ans.Waits) != 1 || ans.Waits[0] != (Wait{1, waits})) {
				t.Errorf("probe names %+v, want PE 1's %q", ans.Waits, waits)
			}
		})
	}

	// A probe answered while busy is said, too: the session tells its
	// state once quiet again, though that is the state it last reported.
	// Left at "busy", the lifecycle would wait for it forever.
	t.Run("busy-answer", func(t *testing.T) {
		pl := newTestPlane()
		ses, err := r.buildSession(s, flat, []bool{true, true}, pl)
		if err != nil {
			t.Fatal(err)
		}
		c := ses.ctrl
		c.workers[1].awaiting.Store(&awaited{msgKey{"a", "b", "u"}, 0})
		last := Report{Busy: true}
		c.busy.Store(1)
		c.retire()
		coordinate(c, &last)
		if rep, ok := heard(pl); !ok || !rep.Waiting {
			t.Fatalf("no waiting report (%+v, %v)", rep, ok)
		}
		c.busy.Add(1) // roused, with nothing for it
		ses.Probe()
		coordinate(c, &last)
		if ans, ok := heard(pl); !ok || !ans.Answer || !ans.Busy {
			t.Fatalf("probe answered %+v (%v), want busy", ans, ok)
		}
		c.retire()
		coordinate(c, &last)
		if rep, ok := heard(pl); !ok || rep.Answer || !rep.Waiting {
			t.Fatalf("no report after the busy answer (%+v, %v)", rep, ok)
		}
	})

	t.Run("delivery-owed", func(t *testing.T) {
		pl := newTestPlane()
		ses, err := r.buildSession(s, flat, []bool{true, true}, pl)
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
		last := Report{Busy: true}
		coordinate(c, &last)
		if rep, ok := heard(pl); ok {
			t.Fatalf("reported with a delivery owed: %+v", rep)
		}
		close(held) // the owed delivery gives up: now the session is quiet
		c.bg.Wait()
		coordinate(c, &last)
		if rep, ok := heard(pl); !ok || !rep.Waiting {
			t.Fatalf("no waiting report once the owed delivery retired (%+v, %v)", rep, ok)
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
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
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
		p, err := ses.Wait()
		if err != nil {
			t.Fatal(err)
		}
		pl.mu.Lock()
		got := strings.Join(pl.log, ", ")
		pl.mu.Unlock()
		if want := "deliver a->b:u, flush"; got != want {
			t.Errorf("%q: plane saw %q, want %q", faults, got, want)
		}
		if p.RemoteSends != 1 || p.RemoteFlushes != 1 {
			t.Errorf("%q: partial counts %d remote sends and %d flushes, want 1 and 1", faults, p.RemoteSends, p.RemoteFlushes)
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
	dead := ses.ctrl.workers[1].inbox
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
