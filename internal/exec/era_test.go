package exec

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file tests the era compiler's contract: one compiler for era 0
// and every recovery era (so both refuse the same malformed lists), one
// era 0 per schedule shared read-only by every run of it, and a message
// path that reads ordinals only in the era they were issued in.

// pausedChain starts the chain schedule with PE 1 crashing before its
// only task and returns the session parked at the barrier.
func pausedChain(t *testing.T) (*Session, *sched.Schedule) {
	t.Helper()
	s, flat := chainSchedule(t)
	plan, err := ParseFaults("crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Faults: plan}
	pl := newTestPlane()
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.crash, "the injected crash")
	if _, err := ses.Pause(false); err != nil {
		t.Fatal(err)
	}
	return ses, s
}

// TestDuplicateDeliveryIsRefusedInEveryEra: a list that delivers one
// (from, to, var) twice to a processor is refused with the same error
// whether it is the schedule's own or a resume plan's — which arrives
// over the wire, and used to keep the last sender silently and starve
// the receiver.
func TestDuplicateDeliveryIsRefusedInEveryEra(t *testing.T) {
	const want = "exec: schedule records duplicate delivery of a->b:u to PE 1"
	refused := func(t *testing.T, err error) {
		t.Helper()
		if err == nil || err.Error() != want {
			t.Fatalf("error %v, want %q", err, want)
		}
	}
	t.Run("era-0", func(t *testing.T) {
		s, flat := chainSchedule(t)
		s.Msgs = append(s.Msgs, s.Msgs[0])
		_, err := (&Runner{Inputs: pits.Env{"x0": pits.Num(5)}}).Run(s, flat)
		refused(t, err)
	})
	// What a confused coordinator might send: a's surviving result
	// re-sent to b twice.
	bad := func(s *sched.Schedule) *ResumePlan {
		return &ResumePlan{Epoch: 1, Slots: s.Slots[1:], Msgs: []sched.Msg{s.Msgs[0], s.Msgs[0], s.Msgs[1]},
			Done: map[graph.NodeID]int{"a": 0}, Dead: []bool{false, false}}
	}
	t.Run("resume", func(t *testing.T) {
		ses, s := pausedChain(t)
		err := ses.Resume(bad(s))
		refused(t, err)
		// The refusal left the session parked, not half-installed.
		ses.Abort(err)
		if _, werr := ses.Wait(); werr == nil || !strings.Contains(werr.Error(), want) {
			t.Errorf("Wait after the refused resume: %v", werr)
		}
	})
	t.Run("join", func(t *testing.T) {
		s, flat := chainSchedule(t)
		r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
		_, err := r.StartSessionFrom(s, flat, []bool{false, true}, newTestPlane(), bad(s))
		refused(t, err)
	})
	t.Run("off-machine", func(t *testing.T) {
		ses, s := pausedChain(t)
		p := bad(s)
		p.Msgs = p.Msgs[1:]
		p.Slots = []sched.Slot{{Task: "b", PE: 2}}
		err := ses.Resume(p)
		if err == nil || !strings.Contains(err.Error(), "on PE 2 of 2 processors") {
			t.Errorf("slot on PE 2 of a 2-processor machine: %v", err)
		}
		p.Slots, p.Msgs = s.Slots[1:], []sched.Msg{{Var: "u", From: "a", To: "b", FromPE: 0, ToPE: 7}}
		err = ses.Resume(p)
		if err == nil || !strings.Contains(err.Error(), "to PE 7 of 2 processors") {
			t.Errorf("message to PE 7 of a 2-processor machine: %v", err)
		}
		ses.Abort(err)
		ses.Wait()
	})
}

// TestUnreadDeliveryIsDropped: a message of the current era that no
// slot of its processor reads — the schedule lists it, or a peer process
// names one the era does not list at all — is admitted (or refused by
// name) and never read. It is nobody's received message: only what a
// slot consumed is counted.
func TestUnreadDeliveryIsDropped(t *testing.T) {
	s, flat := chainSchedule(t)
	// a also "sends" u to e on PE 1, where e does not run and no arc
	// a->e exists.
	s.Msgs = append(s.Msgs, sched.Msg{Var: "u", From: "a", To: "e", FromPE: 0, ToPE: 1, Words: 1})
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Retry: true}
	pl := newTestPlane()
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	// And a peer names a message this era does not schedule at all.
	if err := ses.Deliver(RemoteMsg{From: "x", To: "y", Var: "q", FromPE: 0, ToPE: 1, Seq: 9, Val: pits.Num(1)}); err != nil {
		t.Fatalf("delivery of an unscheduled name: %v", err)
	}
	waitEvent(t, pl.idle, "the run to go idle")
	ses.FinishRun()
	p, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Outputs["e.out"]; got != pits.Num(23) {
		t.Errorf("out = %v, want 23", got)
	}
	if c := trace.Count(p.Events); c.Msgs != 3 || c.MsgsRecv != 2 {
		t.Errorf("sent %d, received %d; want 3 sent, 2 received", c.Msgs, c.MsgsRecv)
	}
}

// TestStaleOrdinalIsDiscardedUnread: an era-0 message still in flight
// when the barrier forms arrives in era 1, where its ordinal means
// something else — here nothing: era 0 gave b->d:v ordinal 1 on PE 0 and
// era 1 schedules a single inbound message there. The receiver must
// judge it by its epoch before it reads the ordinal, and take the
// era-1 copy. (The barrier is formed by hand; a crash forms the same.)
func TestStaleOrdinalIsDiscardedUnread(t *testing.T) {
	s, flat := chainSchedule(t)
	// Ordinal 0 on PE 0 goes to a message nobody sends: e has no copy on PE 1.
	s.Msgs = append([]sched.Msg{{Var: "out", From: "e", To: "a", FromPE: 1, ToPE: 0, Words: 1}}, s.Msgs...)
	// Both copies of b->d:v are held back, so the era-0 one lands while
	// PE 0 waits for the era-1 one.
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Faults: &FaultPlan{Faults: []Fault{
		{Kind: FaultDelay, From: "b", To: "d", Var: "v", Delay: 40_000, Count: 2}}}}
	pl := newTestPlane()
	ses, err := r.StartSession(s, flat, []bool{true, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	// The fault plan holds the second copy back once b has sent the
	// first: b, which checks for the barrier only after its sends, then
	// counts as done.
	delayed := func() bool {
		f := ses.ctrl.faults
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.msgFaults[0].remaining < 2
	}
	for deadline := time.Now().Add(10 * time.Second); !delayed(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("b never sent b->d:v")
		}
	}
	st, err := ses.Pause(false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done["a"] != 0 || st.Done["b"] != 1 || len(st.Done) != 2 {
		t.Fatalf("pause state %+v, want a held on PE 0 and b on PE 1", st.Done)
	}
	rp := &ResumePlan{Epoch: 1, Slots: s.Slots[2:], Msgs: s.Msgs[2:], Done: st.Done, Dead: []bool{false, false}}
	if err := ses.Resume(rp); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, pl.idle, "era 1 to finish")
	ses.FinishRun()
	p, err := ses.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Outputs["e.out"]; got != pits.Num(23) {
		t.Errorf("out = %v, want 23", got)
	}
	for _, e := range p.Events {
		if e.Kind == trace.MsgRecv && e.Var == "v" && e.Seq != 2<<32|2 {
			t.Errorf("d consumed send %#x of b->d:v, want PE 1's second (the era-1 re-send)", e.Seq)
		}
	}
}

// traceOf runs the schedule fault-free (unless faults are given) in
// virtual time and renders everything observable about the run.
func traceOf(t *testing.T, s *sched.Schedule, flat *graph.Flat, inputs pits.Env, faults *FaultPlan) string {
	t.Helper()
	res, err := (&Runner{Inputs: inputs, VirtualTime: true, Faults: faults}).RunContext(context.Background(), s, flat)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace.String() + fmt.Sprint(res.Outputs) // fmt prints a map in key order
}

// TestConcurrentRunsShareOneEra: 16 runs racing on one fresh schedule
// leave exactly one compiled era on it, which every later run finds, and
// all of them produce the same outputs and trace.
func TestConcurrentRunsShareOneEra(t *testing.T) {
	flat, inputs := layeredCalc(t, 5, 4)
	s, err := sched.MH{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Derived() != nil {
		t.Fatal("a schedule nobody ran carries a compiled era")
	}
	const runs = 16
	got := make([]string, runs)
	found := make([]any, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = traceOf(t, s, flat, inputs, nil)
			found[i] = s.Derived()
		}(i)
	}
	wg.Wait()
	era, _ := s.Derived().(*eraPlan)
	if era == nil || era.flat != flat {
		t.Fatalf("the schedule holds %T after its runs, want its compiled era", s.Derived())
	}
	for i := 1; i < runs; i++ {
		if got[i] != got[0] {
			t.Errorf("run %d differs from run 0:\n%s\nvs\n%s", i, got[i], got[0])
		}
		if found[i] != any(era) {
			t.Errorf("run %d found era %p on the schedule, want %p", i, found[i], era)
		}
	}
	if again, err := era0(s, flat); err != nil || again != era {
		t.Errorf("a later run compiled again: %p, %v; want the shared %p", again, err, era)
	}
}

// TestRecoveryLeavesSharedEraAlone: a run that crashes a processor and
// recovers installs freshly compiled eras on its own workers; the era 0
// it shares with every other run of the schedule is not written. A
// fault-free run afterwards is identical to one on a schedule that never
// saw the crash.
func TestRecoveryLeavesSharedEraAlone(t *testing.T) {
	flat, inputs := layeredCalc(t, 5, 4)
	fresh := func() *sched.Schedule {
		s, err := sched.MH{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := fresh()
	want := traceOf(t, fresh(), flat, inputs, nil)
	before, err := era0(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]peProg(nil), before.pes...)
	crash, err := ParseFaults("crash:2@1")
	if err != nil {
		t.Fatal(err)
	}
	if crashed := traceOf(t, s, flat, inputs, crash); !strings.Contains(crashed, "rescheduled") {
		t.Fatalf("the crash run recovered nothing:\n%s", crashed)
	}
	if got := traceOf(t, s, flat, inputs, nil); got != want {
		t.Errorf("after a recovery on the same schedule a fault-free run differs from a fresh schedule's:\n%s\nvs\n%s", got, want)
	}
	if after, _ := era0(s, flat); after != before || !reflect.DeepEqual(after.pes, snapshot) {
		t.Error("the recovery wrote into the schedule's shared era")
	}
}

// TestEraIsCompiledAgainstItsDesign: a schedule run against a second
// flattening of its design does not get the first one's era.
func TestEraIsCompiledAgainstItsDesign(t *testing.T) {
	s, flat := chainSchedule(t)
	first, err := era0(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	other := *flat
	second, err := era0(s, &other)
	if err != nil || second == first || second.flat != &other {
		t.Errorf("era for another design: %p (flat %p), %v; the parked one is %p", second, second.flat, err, first)
	}
	if again, _ := era0(s, flat); again != first {
		t.Error("the parked era was displaced")
	}
}

// TestReleasedSessionLogIsReused: a session's event log, released once
// its partial is read, is the next session's log — the same array, not
// a new one — and that session's partial is what the fresh session's
// was. A released log too short for a session stays for one it fits,
// and a second Release hands nothing back twice.
func TestReleasedSessionLogIsReused(t *testing.T) {
	flat, inputs := layeredCalc(t, 5, 4)
	s, err := sched.MH{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
	if err != nil {
		t.Fatal(err)
	}
	hosted := make([]bool, s.Machine.NumPE())
	for pe := range hosted {
		hosted[pe] = true
	}
	run := func() (*Session, []trace.Event) {
		t.Helper()
		pl := newTestPlane()
		ses, err := (&Runner{Inputs: inputs, VirtualTime: true}).StartSession(s, flat, hosted, pl)
		if err != nil {
			t.Fatal(err)
		}
		waitEvent(t, pl.idle, "the session to go idle")
		ses.FinishRun()
		p, err := ses.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(p.Events) != unsafe.SliceData(ses.log) {
			t.Fatal("the partial's events are not the session's log")
		}
		tr := &trace.Trace{Events: append([]trace.Event(nil), p.Events...)}
		tr.Sort()
		return ses, tr.Events
	}
	era, err := era0(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	short := make([]trace.Event, 1)
	era.spare = append(era.spare, short)

	first, want := run()
	log := unsafe.SliceData(first.log)
	if log == unsafe.SliceData(short) {
		t.Fatal("a session took a released log too short for it")
	}
	first.Release()
	first.Release()
	if len(era.spare) != 2 {
		t.Fatalf("%d spare logs after releasing one session twice, want 2", len(era.spare))
	}
	second, got := run()
	if unsafe.SliceData(second.log) != log {
		t.Error("the next session allocated a log instead of taking the released one")
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("a session on a released log logged differently from a fresh one")
	}
	if len(era.spare) != 1 || unsafe.SliceData(era.spare[0]) != unsafe.SliceData(short) {
		t.Errorf("spare logs %d, want only the short one left", len(era.spare))
	}
}
