package exec

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// wideDesign builds a two-source / three-middle / one-sink design with
// real routines, wide enough that every scheduler spreads it across
// processors and produces cross-PE messages.
func wideDesign(t *testing.T) *graph.Flat {
	t.Helper()
	g := graph.New("wide-calc")
	g.MustAddStorage("X0", "x0")
	g.MustAddStorage("X1", "x1")
	s1 := g.MustAddTask("s1", "src1", 40)
	s2 := g.MustAddTask("s2", "src2", 40)
	m1 := g.MustAddTask("m1", "mid1", 30)
	m2 := g.MustAddTask("m2", "mid2", 35)
	m3 := g.MustAddTask("m3", "mid3", 45)
	snk := g.MustAddTask("snk", "sink", 20)
	g.MustAddStorage("Y", "y")
	s1.Routine = "p = x0 + 1"
	s2.Routine = "q = x1 * 2"
	m1.Routine = "r1 = p + q"
	m2.Routine = "r2 = p - q"
	m3.Routine = "r3 = p * q"
	snk.Routine = "y = r1 + r2 + r3"
	g.MustConnect("X0", "s1", "x0", 1)
	g.MustConnect("X1", "s2", "x1", 1)
	for _, mid := range []graph.NodeID{"m1", "m2", "m3"} {
		g.MustConnect("s1", mid, "p", 1)
		g.MustConnect("s2", mid, "q", 1)
	}
	g.MustConnect("m1", "snk", "r1", 1)
	g.MustConnect("m2", "snk", "r2", 1)
	g.MustConnect("m3", "snk", "r3", 1)
	g.MustConnect("snk", "Y", "y", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func wideInputs() pits.Env {
	return pits.Env{"x0": pits.Num(6), "x1": pits.Num(3)}
}

// countKinds tallies trace events by kind.
func countKinds(tr *trace.Trace) map[trace.Kind]int {
	n := map[trace.Kind]int{}
	for _, e := range tr.Events {
		n[e.Kind]++
	}
	return n
}

// TestFaultMatrix is the table-driven robustness sweep: every fault
// kind against every topology and scheduler combination, asserting the
// faulty run reproduces the fault-free outputs exactly and that the
// trace records the injected fault (and, where retransmission is the
// healing mechanism, the retries).
func TestFaultMatrix(t *testing.T) {
	flat := wideDesign(t)
	algs := []sched.Scheduler{sched.MH{}, sched.DSH{}}
	topos := []string{"hypercube:2", "star:4", "full:4"}
	kinds := []FaultKind{FaultCrash, FaultDrop, FaultDup, FaultDelay, FaultCorrupt}
	for _, spec := range topos {
		for _, alg := range algs {
			m := testMachine(t, spec, params())
			s, err := alg.Schedule(flat.Graph, m)
			if err != nil {
				t.Fatal(err)
			}
			clean := &Runner{Inputs: wideInputs()}
			want, err := clean.Run(s, flat)
			if err != nil {
				t.Fatalf("%s/%s fault-free: %v", spec, alg.Name(), err)
			}
			for _, kind := range kinds {
				t.Run(spec+"/"+alg.Name()+"/"+kind.String(), func(t *testing.T) {
					var fault Fault
					switch kind {
					case FaultCrash:
						pe := -1
						for p := 0; p < m.NumPE(); p++ {
							if len(s.PESlots(p)) > 0 {
								pe = p
								break
							}
						}
						if pe < 0 {
							t.Skip("no busy PE to crash")
						}
						fault = Fault{Kind: FaultCrash, PE: pe, Slot: 0}
					default:
						var msg *sched.Msg
						for i := range s.Msgs {
							if s.Msgs[i].FromPE != s.Msgs[i].ToPE {
								msg = &s.Msgs[i]
								break
							}
						}
						if msg == nil {
							t.Skip("schedule has no cross-PE message to fault")
						}
						fault = Fault{Kind: kind, From: msg.From, To: msg.To, Var: msg.Var, Count: 1}
						if kind == FaultDelay {
							fault.Delay = 2000 // 2ms wall
						}
					}
					r := &Runner{
						Inputs: wideInputs(),
						Faults: &FaultPlan{Faults: []Fault{fault}},
						Retry:  true,
					}
					got, err := r.Run(s, flat)
					if err != nil {
						t.Fatalf("faulty run: %v", err)
					}
					if !reflect.DeepEqual(got.Outputs, want.Outputs) {
						t.Errorf("outputs diverged under %s:\n got %v\nwant %v", fault, got.Outputs, want.Outputs)
					}
					n := countKinds(got.Trace)
					if n[trace.FaultInjected] == 0 {
						t.Errorf("trace records no injected fault for %s", fault)
					}
					switch kind {
					case FaultCrash:
						if n[trace.TaskRescheduled] == 0 {
							t.Errorf("crash recovery recorded no rescheduled tasks")
						}
					case FaultDrop, FaultCorrupt:
						if n[trace.MsgRetry] == 0 {
							t.Errorf("%s healed without a recorded retry", kind)
						}
					}
					st, err := got.Trace.Summarize(m.NumPE())
					if err != nil {
						t.Fatalf("summarize: %v", err)
					}
					if st.Faults != n[trace.FaultInjected] || st.Retries != n[trace.MsgRetry] || st.Rescheduled != n[trace.TaskRescheduled] {
						t.Errorf("stats disagree with event counts: %+v", st)
					}
				})
			}
		}
	}
}

// chainSchedule hand-places a 4-task chain a->b->d->e so that PE 0 runs
// a, d, e and PE 1 runs b, forcing the messages a->b:u and b->d:v
// across the wire. Crash PE 0 at slot 2 and the crash fires only after
// d completed — i.e. after b's reply arrived, which itself needs the
// retransmission when a->b:u is dropped. Every fault/retry/reschedule
// event is then deterministic.
func chainSchedule(t *testing.T) (*sched.Schedule, *graph.Flat) {
	t.Helper()
	g := graph.New("chain-calc")
	g.MustAddStorage("X0", "x0")
	a := g.MustAddTask("a", "a", 10)
	b := g.MustAddTask("b", "b", 10)
	d := g.MustAddTask("d", "d", 10)
	e := g.MustAddTask("e", "e", 10)
	g.MustAddStorage("OUT", "out")
	a.Routine = "u = 2 * x0"
	b.Routine = "v = u + 1"
	d.Routine = "z = v * 2"
	e.Routine = "out = z + 1"
	g.MustConnect("X0", "a", "x0", 1)
	g.MustConnect("a", "b", "u", 1)
	g.MustConnect("b", "d", "v", 1)
	g.MustConnect("d", "e", "z", 1)
	g.MustConnect("e", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	m := testMachine(t, "full:2", params())
	s := &sched.Schedule{
		Graph: flat.Graph, Machine: m, Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 11},
			{Task: "b", PE: 1, Start: 17, Finish: 28},
			{Task: "d", PE: 0, Start: 34, Finish: 45},
			{Task: "e", PE: 0, Start: 45, Finish: 56},
		},
		Msgs: []sched.Msg{
			{Var: "u", From: "a", To: "b", FromPE: 0, ToPE: 1, Words: 1, Send: 11, Recv: 17, Hops: 1},
			{Var: "v", From: "b", To: "d", FromPE: 1, ToPE: 0, Words: 1, Send: 28, Recv: 34, Hops: 1},
		},
	}
	s.Finalize()
	return s, flat
}

// TestCrashAndDropRecoverExactOutputs is the headline acceptance run: a
// seeded plan that drops a message and crashes a processor must still
// complete with outputs byte-identical to the fault-free run, and the
// trace must record the faults, the retry that healed the drop and the
// tasks recovery moved.
func TestCrashAndDropRecoverExactOutputs(t *testing.T) {
	s, flat := chainSchedule(t)
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("drop:a->b:u,crash:0@2")
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Inputs: inputs, Faults: plan,
		Retry: true,
	}
	got, err := r.Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("outputs diverged:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
	n := countKinds(got.Trace)
	if n[trace.FaultInjected] != 2 {
		t.Errorf("want 2 FaultInjected events (drop + crash), got %d", n[trace.FaultInjected])
	}
	if n[trace.MsgRetry] == 0 {
		t.Errorf("dropped message healed without a recorded retry")
	}
	if n[trace.TaskRescheduled] == 0 {
		t.Errorf("crash recovery recorded no rescheduled tasks")
	}
	// The tasks the dead processor still owed (d ran; a re-derivable;
	// e pending) must all have been replanned onto the survivor.
	moved := map[graph.NodeID]bool{}
	for _, ev := range got.Trace.Events {
		if ev.Kind == trace.TaskRescheduled {
			if ev.PE != 1 {
				t.Errorf("task %s rescheduled onto PE %d; only PE 1 survives", ev.Task, ev.PE)
			}
			moved[ev.Task] = true
		}
	}
	if !moved["e"] {
		t.Errorf("pending task e not rescheduled; moved: %v", moved)
	}
}

// TestLostMessageIsReportedAsDeadlock: a dropped message without retry
// leaves every processor blocked with nothing in flight. That is a state,
// not a duration: the run fails at once, naming the missing edge, the
// processor waiting for it and the processor that was to send it. No
// timeout is set anywhere.
func TestLostMessageIsReportedAsDeadlock(t *testing.T) {
	check := func(t *testing.T, s *sched.Schedule, flat *graph.Flat, inputs pits.Env, lost sched.Msg) {
		t.Helper()
		k := msgKey{lost.From, lost.To, lost.Var}
		r := &Runner{Inputs: inputs, Faults: &FaultPlan{Faults: []Fault{
			{Kind: FaultDrop, From: lost.From, To: lost.To, Var: lost.Var, Count: 1}}}}
		start := time.Now()
		_, err := r.Run(s, flat)
		took := time.Since(start)
		if err == nil {
			t.Fatal("lost message without retry did not fail")
		}
		if !strings.Contains(err.Error(), "deadlocked") {
			t.Errorf("error is not a deadlock report: %v", err)
		}
		want := fmt.Sprintf("PE %d waits for %s from PE %d", lost.ToPE, k, lost.FromPE)
		if !strings.Contains(err.Error(), want) {
			t.Errorf("report lacks %q: %v", want, err)
		}
		if took > 100*time.Millisecond {
			t.Errorf("deadlock reported after %v, want < 100ms", took)
		}
	}
	t.Run("chain", func(t *testing.T) {
		s, flat := chainSchedule(t)
		check(t, s, flat, pits.Env{"x0": pits.Num(5)}, s.Msgs[0]) // a->b:u
	})
	t.Run("layered-501", func(t *testing.T) {
		flat, inputs := layeredCalc(t, 20, 25)
		s, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range s.Msgs {
			if m.FromPE != m.ToPE && strings.HasPrefix(string(m.To), "t10_") {
				check(t, s, flat, inputs, m)
				return
			}
		}
		t.Fatal("no cross-PE message into layer 10")
	})
}

// TestVirtualCrashRunsComputeAlike: the diamond on hypercube:2, ETF
// putting a and b on PE 0 and c and d on PE 1, with PE 1 crashing
// before its first task. What PE 0 runs and sends before the barrier
// forms is goroutine timing, and the replan follows it, so the virtual
// time trace is not reproducible (docs/TESTING.md, "Known flakes"). What
// the run computes is: 50 runs print the same lines and export the same
// outputs, those of the fault-free run.
func TestVirtualCrashRunsComputeAlike(t *testing.T) {
	flat := diamondDesign(t)
	flat.Graph.Node("b").Routine += "\nprint \"v \", v"
	flat.Graph.Node("d").Routine += "\nprint \"y \", y"
	s, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "hypercube:2", params()))
	if err != nil {
		t.Fatal(err)
	}
	for _, sl := range s.Slots {
		if want := map[graph.NodeID]int{"a": 0, "b": 0, "c": 1, "d": 1}[sl.Task]; sl.PE != want {
			t.Fatalf("ETF put %s on PE %d, want PE %d", sl.Task, sl.PE, want)
		}
	}
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs, VirtualTime: true}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("crash:1@0")
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string]int{}
	for i := 0; i < 50; i++ {
		res, err := (&Runner{Inputs: inputs, VirtualTime: true, Faults: plan}).Run(s, flat)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if fmt.Sprint(res.Outputs) != fmt.Sprint(want.Outputs) || !slices.Equal(res.Printed, want.Printed) {
			t.Fatalf("run %d computed %v, printing %q; want %v, printing %q", i, res.Outputs, res.Printed, want.Outputs, want.Printed)
		}
		traces[res.Trace.String()]++
	}
	t.Logf("50 runs, %d distinct traces", len(traces))
}

// TestCrashWhileOthersBlockIsNotDeadlock: PE 0 runs a long task a and
// then dies before c, whose result PE 1 has been blocked on from the
// start. The moment PE 0 dies every live processor is blocked and
// nothing is in flight — but a crash awaiting its replan is not a
// deadlock: recovery must complete with the fault-free outputs.
func TestCrashWhileOthersBlockIsNotDeadlock(t *testing.T) {
	g := graph.New("straggler")
	g.MustAddStorage("X0", "x0")
	g.MustAddTask("a", "a", 100).Routine = "u = x0\nrepeat 20000 do\n  u = u + 1\nend"
	g.MustAddTask("c", "c", 10).Routine = "w = u * 2"
	g.MustAddTask("b", "b", 10).Routine = "out = w + 1"
	g.MustAddStorage("OUT", "out")
	g.MustConnect("X0", "a", "x0", 1)
	g.MustConnect("a", "c", "u", 1)
	g.MustConnect("c", "b", "w", 1)
	g.MustConnect("b", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Graph: flat.Graph, Machine: testMachine(t, "full:2", params()), Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 101},
			{Task: "c", PE: 0, Start: 101, Finish: 112},
			{Task: "b", PE: 1, Start: 118, Finish: 129},
		},
		Msgs: []sched.Msg{
			{Var: "w", From: "c", To: "b", FromPE: 0, ToPE: 1, Words: 1, Send: 112, Recv: 118, Hops: 1},
		},
	}
	s.Finalize()
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("crash:0@1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{Inputs: inputs, Faults: plan}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("outputs diverged:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
}

// TestHeldDeliveryIsNotDeadlock: a->b:u is held back 30ms, long enough
// that both processors block behind it (PE 1 on it, PE 0 on b's reply).
// A delivery still owed is not a deadlock: the run completes with the
// fault-free outputs, with the ack/retry protocol off and on.
func TestHeldDeliveryIsNotDeadlock(t *testing.T) {
	s, flat := chainSchedule(t)
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("delay:a->b:u@30000")
	if err != nil {
		t.Fatal(err)
	}
	for _, retry := range []bool{false, true} {
		got, err := (&Runner{Inputs: inputs, Faults: plan, Retry: retry}).Run(s, flat)
		if err != nil {
			t.Fatalf("retry=%v: %v", retry, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Errorf("retry=%v: outputs diverged:\n got %v\nwant %v", retry, got.Outputs, want.Outputs)
		}
	}
}

// busyConsumer schedules, on two processors, a task a on PE 0 that
// sends four messages to b on PE 1, where z runs first and counts to n.
func busyConsumer(t *testing.T, n int) (*sched.Schedule, *graph.Flat) {
	t.Helper()
	g := graph.New("busy-consumer")
	g.MustAddStorage("X0", "x0")
	a := g.MustAddTask("a", "a", 10)
	z := g.MustAddTask("z", "z", 1000)
	b := g.MustAddTask("b", "b", 10)
	g.MustAddStorage("OUT", "out")
	a.Routine = "u1 = x0 + 1\nu2 = x0 + 2\nu3 = x0 + 3\nu4 = x0 + 4"
	z.Routine = fmt.Sprintf("s = x0\nrepeat %d do\n  s = s + 1\nend", n)
	b.Routine = "out = u1 + u2 + u3 + u4 + s"
	g.MustConnect("X0", "a", "x0", 1)
	g.MustConnect("X0", "z", "x0", 1)
	g.MustConnect("z", "b", "s", 1)
	g.MustConnect("b", "OUT", "out", 1)
	msgs := make([]sched.Msg, 4)
	for i := range msgs {
		v := fmt.Sprintf("u%d", i+1)
		g.MustConnect("a", "b", v, 1)
		msgs[i] = sched.Msg{Var: v, From: "a", To: "b", FromPE: 0, ToPE: 1, Words: 1, Send: 11, Recv: 17, Hops: 1}
	}
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	s := &sched.Schedule{
		Graph: flat.Graph, Machine: testMachine(t, "full:2", params()), Algorithm: "hand",
		Slots: []sched.Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 11},
			{Task: "z", PE: 1, Start: 0, Finish: 1001},
			{Task: "b", PE: 1, Start: 1001, Finish: 1012},
		},
		Msgs: msgs,
	}
	s.Finalize()
	return s, flat
}

// TestRetriesFollowTheFaultPlan: how many retransmissions a run makes
// is the fault plan's to say, not the wall clock's. PE 1 is busy in z
// for at least 50ms of wall time while a's four messages wait in its
// mailbox — far longer than any retransmission timer would wait for a
// receipt — and an unfaulted run resends none of them. Then one message
// is dropped, one corrupted, one duplicated and one delayed: exactly the
// drop and the corruption are resent, once each. Every run, in virtual
// time and on the wall clock, produces the fault-free outputs.
func TestRetriesFollowTheFaultPlan(t *testing.T) {
	inputs := pits.Env{"x0": pits.Num(5)}
	plan, err := ParseFaults("drop:a->b:u1,corrupt:a->b:u2,dup:a->b:u3,delay:a->b:u4@2000")
	if err != nil {
		t.Fatal(err)
	}
	var want pits.Env
	run := func(s *sched.Schedule, flat *graph.Flat, virtual bool, faults *FaultPlan, retries int) *Result {
		t.Helper()
		stats := &Stats{}
		r := &Runner{Inputs: inputs, VirtualTime: virtual, MaxSteps: 1 << 40, Faults: faults, Retry: true, Stats: stats}
		res, err := r.Run(s, flat)
		if err != nil {
			t.Fatalf("virtual=%v, faults %v: %v", virtual, faults, err)
		}
		if want != nil && !reflect.DeepEqual(res.Outputs, want) {
			t.Errorf("virtual=%v, faults %v: outputs diverged:\n got %v\nwant %v", virtual, faults, res.Outputs, want)
		}
		n := 0
		for _, ev := range res.Trace.Events {
			if ev.Kind == trace.MsgRetry {
				n++
			}
		}
		if n != retries || stats.Snapshot().Retries != int64(retries) {
			t.Errorf("virtual=%v, faults %v: %d msg-retry events, Stats.Retries %d; want %d of each\n%s",
				virtual, faults, n, stats.Snapshot().Retries, retries, res.Trace)
		}
		return res
	}
	// How long z takes depends on the host and on what else it runs, so
	// z counts longer until an unfaulted wall-clock run shows the busy
	// spell; the runs after it count as far.
	var s *sched.Schedule
	var flat *graph.Flat
	for n := 1 << 15; want == nil; n *= 2 {
		s, flat = busyConsumer(t, n)
		res := run(s, flat, false, nil, 0)
		var busy machine.Time
		for _, ev := range res.Trace.Events {
			switch {
			case ev.Task == "z" && ev.Kind == trace.TaskStart:
				busy -= ev.At
			case ev.Task == "z" && ev.Kind == trace.TaskEnd:
				busy += ev.At
			}
		}
		if busy >= 50_000 {
			want = res.Outputs
		}
	}
	run(s, flat, false, plan, 2)
	run(s, flat, true, nil, 0)
	run(s, flat, true, plan, 2)
}

// TestPartialSessionReportsItsWait: a session hosting a share of the
// machine cannot tell a lost message from a slow peer, and does not try.
// It reports that it is quiet with PE 1 waiting — once, with no timer
// armed and without failing — and names the wait when probed. The copy
// arriving wakes it; its next report, idle, counts the copy taken in
// and the one it handed its plane in turn.
func TestPartialSessionReportsItsWait(t *testing.T) {
	s, flat := chainSchedule(t)
	pl := newTestPlane()
	ses, err := (&Runner{Inputs: pits.Env{"x0": pits.Num(5)}}).StartSession(s, flat, []bool{false, true}, pl)
	if err != nil {
		t.Fatal(err)
	}
	rep := waitEvent(t, pl.quiet, "PE 1 to block on a->b:u")
	if want := (Report{Waiting: true}); rep.Report != want || rep.Answer {
		t.Fatalf("report %+v, want %+v", rep, want)
	}
	ses.Probe()
	ans := waitEvent(t, pl.quiet, "the probe's answer")
	if want := []Wait{{1, "PE 1 waits for a->b:u from PE 0"}}; ans.Report != rep.Report || !ans.Answer || !slices.Equal(ans.Waits, want) {
		t.Errorf("probe answered %+v, want the report naming %v", ans, want)
	}
	select {
	case <-ses.ctrl.done:
		t.Fatalf("the session failed itself: %v", ses.ctrl.runErr)
	case rep := <-pl.quiet:
		t.Fatalf("reported again with nothing changed: %+v", rep)
	default:
	}
	if err := ses.Deliver(RemoteMsg{From: "a", To: "b", Var: "u", FromPE: 0, ToPE: 1, Seq: 1<<32 | 1, Val: pits.Num(10)}); err != nil {
		t.Fatal(err)
	}
	rep = waitEvent(t, pl.quiet, "PE 1 to run b and go idle")
	if want := (Report{Sent: 1, Recv: 1}); rep.Report != want {
		t.Errorf("report %+v, want %+v", rep, want)
	}
	ses.FinishRun()
	if _, err := ses.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateDeliveryRejected: a malformed schedule that records the
// same message twice must be rejected at the receiver, not silently
// absorbed by overwriting the stash.
func TestDuplicateDeliveryRejected(t *testing.T) {
	s, flat := chainSchedule(t)
	dupMsgs := append(append([]sched.Msg{}, s.Msgs...), s.Msgs[0]) // a->b:u twice
	hand := &sched.Schedule{Graph: s.Graph, Machine: s.Machine, Algorithm: "hand-dup",
		Slots: s.Slots, Msgs: dupMsgs}
	hand.Finalize()
	r := &Runner{Inputs: pits.Env{"x0": pits.Num(5)}}
	_, err := r.Run(hand, flat)
	if err == nil {
		t.Fatal("doubled message record not rejected")
	}
	if !strings.Contains(err.Error(), "duplicate delivery") {
		t.Errorf("error does not report the duplicate delivery: %v", err)
	}
}

// TestInjectedDuplicateAbsorbed: the same delivery duplicated by the
// chaos harness (same sequence number) must be absorbed silently.
func TestInjectedDuplicateAbsorbed(t *testing.T) {
	s, flat := chainSchedule(t)
	inputs := pits.Env{"x0": pits.Num(5)}
	want, err := (&Runner{Inputs: inputs}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ParseFaults("dup:a->b:u")
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&Runner{Inputs: inputs, Faults: plan}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Outputs, want.Outputs) {
		t.Errorf("outputs diverged under dup fault:\n got %v\nwant %v", got.Outputs, want.Outputs)
	}
}

// TestMissingInputsFailFast: missing external inputs must be one clear
// preflight error naming every absent variable, with no worker spawned
// and no cascade report.
func TestMissingInputsFailFast(t *testing.T) {
	flat := wideDesign(t)
	m := testMachine(t, "full:2", params())
	s, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	_, err = (&Runner{Inputs: pits.Env{"x0": pits.Num(1)}}).Run(s, flat)
	if err == nil {
		t.Fatal("missing input not reported")
	}
	msg := err.Error()
	if !strings.Contains(msg, "external input") || !strings.Contains(msg, `"x1"`) {
		t.Errorf("preflight error should name the missing external input x1: %v", err)
	}
	if strings.Contains(msg, "cascade") {
		t.Errorf("preflight error reads like a runtime cascade: %v", err)
	}
}

func TestParseFaults(t *testing.T) {
	plan, err := ParseFaults("crash:1@2, drop:a->b:u, dup:a->b:u@3, delay:b->d:v@500, corrupt:m1->snk:r1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: FaultCrash, PE: 1, Slot: 2},
		{Kind: FaultDrop, From: "a", To: "b", Var: "u", Count: 1},
		{Kind: FaultDup, From: "a", To: "b", Var: "u", Count: 3},
		{Kind: FaultDelay, From: "b", To: "d", Var: "v", Delay: 500, Count: 1},
		{Kind: FaultCorrupt, From: "m1", To: "snk", Var: "r1", Count: 1},
	}
	if !reflect.DeepEqual(plan.Faults, want) {
		t.Errorf("parsed %+v\nwant %+v", plan.Faults, want)
	}
}

// TestParseFaultsErrors pins the error message for every malformed
// spec shape: the -faults flag is the user-facing surface of the fault
// injector and a vague parse error wastes a debugging session.
func TestParseFaultsErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error message
	}{
		{"", "no faults"},
		{" , ,", "no faults"},
		{"crash", "want kind:args"},
		{"zap:a->b:u", `unknown kind "zap"`},
		{"crash:1", "want crash:PE@SLOT"},
		{"crash:one@2", "want crash:PE@SLOT"},
		{"crash:-1@2", "negative PE or slot"},
		{"crash:1@-2", "negative PE or slot"},
		{"drop:a:u", "want FROM->TO:VAR"},
		{"drop:->b:u", "want FROM->TO:VAR"},
		{"drop:a->:u", "want FROM->TO:VAR"},
		{"drop:a->b:", "want FROM->TO:VAR"},
		{"delay:a->b:u", "want delay:FROM->TO:VAR@USEC"},
		{"delay:a->b:u@fast", `bad count/delay "fast"`},
		{"delay:a->b:u@0", `bad count/delay "0"`},
		{"dup:a->b:u@-1", `bad count/delay "-1"`},
		{"corrupt:a->b:u@1.5", `bad count/delay "1.5"`},
		{"drop:a->b:u, crash:oops", "want crash:PE@SLOT"},
	}
	for _, tc := range cases {
		_, err := ParseFaults(tc.spec)
		if err == nil {
			t.Errorf("ParseFaults(%q) accepted a malformed spec", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseFaults(%q) = %q, want it to mention %q", tc.spec, err, tc.want)
		}
	}
}

func TestRandomFaultsDeterministic(t *testing.T) {
	flat := wideDesign(t)
	m := testMachine(t, "hypercube:2", params())
	s, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomFaults(7, s)
	b := RandomFaults(7, s)
	if a == nil {
		t.Fatal("RandomFaults returned nil for a schedule with work and messages")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed drew different plans:\n%v\n%v", a, b)
	}
	if len(a.Faults) < 2 {
		t.Errorf("want a crash and a drop, got %v", a)
	}
}

// TestRandomFaultsSurvived: seeded random crash+drop plans across many
// seeds must all recover to the exact fault-free outputs (the make
// chaos loop runs this 50x under -race).
func TestRandomFaultsSurvived(t *testing.T) {
	flat := wideDesign(t)
	m := testMachine(t, "hypercube:2", params())
	s, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&Runner{Inputs: wideInputs()}).Run(s, flat)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 5; seed++ {
		r := &Runner{
			Inputs: wideInputs(), Faults: RandomFaults(seed, s),
			Retry: true,
		}
		got, err := r.Run(s, flat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.Outputs, want.Outputs) {
			t.Errorf("seed %d: outputs diverged:\n got %v\nwant %v", seed, got.Outputs, want.Outputs)
		}
	}
}
