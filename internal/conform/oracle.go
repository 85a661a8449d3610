package conform

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// check runs every oracle over the engines' observations and appends
// the violations to the report.
func check(rep *Report, flat *graph.Flat) {
	_ = flat
	c := rep.Case
	if c.Lost && dropsScheduled(c.Faults, rep.Schedule) {
		checkDeadlock(rep)
		return
	}
	for _, e := range rep.Engines {
		if e.Err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "error", Engine: e.Name, Detail: e.Err.Error()})
		}
	}
	run := rep.Engine("runner")
	sim := rep.Engine("simulate")

	// Oracle: external outputs and printed lines are identical across
	// every engine that actually executes data. The runner is the
	// baseline; the distributed engines must match it byte for byte
	// (outputs compare via their canonical wire encoding).
	if run.Err == nil {
		for _, name := range []string{"inproc", "tcp"} {
			e := rep.Engine(name)
			if e == nil || e.Err != nil {
				continue
			}
			if !sameBytes(e.OutBytes, run.OutBytes) {
				rep.Divergences = append(rep.Divergences, Divergence{
					Oracle: "outputs", Engine: name,
					Detail: fmt.Sprintf("runner %v != %s %v", run.Outputs, name, e.Outputs)})
			}
			if !stringsEqual(e.Printed, run.Printed) {
				rep.Divergences = append(rep.Divergences, Divergence{
					Oracle: "printed", Engine: name,
					Detail: fmt.Sprintf("runner %q != %s %q", run.Printed, name, e.Printed)})
			}
		}
	}

	// Oracle: fault-free, the virtual-time trace equals the simulated
	// one event for event, and its makespan equals the schedule's. A
	// non-zero SkewComm is expected to trip exactly these two.
	if run.Err == nil && sim.Err == nil && c.Faults == nil {
		compareTraces(rep, sim.Trace, run.Trace)
		want := rep.Schedule.Makespan()
		if got := maxTaskEnd(run.Trace); got != want {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "makespan", Engine: "runner",
				Detail: fmt.Sprintf("trace makespan %s != scheduled %s", got, want)})
		}
	}

	if run.Err == nil {
		checkCausality(rep, run.Trace)
		checkConservation(rep, run.Trace)
	}
	for _, e := range rep.Engines {
		if e.Err == nil && e.Name != "simulate" {
			checkRetries(rep, e)
			if d := checkCounts(e); d != "" {
				rep.Divergences = append(rep.Divergences, Divergence{Oracle: "counts", Engine: e.Name, Detail: d})
			}
		}
	}
}

// dropsScheduled reports whether the plan drops a message the schedule
// sends between two processors: one that, never resent, some processor
// waits for forever.
func dropsScheduled(plan *exec.FaultPlan, sc *sched.Schedule) bool {
	for _, f := range plan.Faults {
		for _, m := range sc.Msgs {
			if f.Kind == exec.FaultDrop && m.From == f.From && m.To == f.To && m.Var == f.Var && m.FromPE != m.ToPE {
				return true
			}
		}
	}
	return false
}

// checkDeadlock verifies that a copy lost for good is one deadlock on
// every executing engine: the runner reports it as "exec: run
// deadlocked: …", inproc and tcp return that very error, and tcp within
// a second — the verdict is counted, not timed.
func checkDeadlock(rep *Report) {
	run := rep.Engine("runner")
	if run.Err == nil || !strings.HasPrefix(run.Err.Error(), "exec: run deadlocked: ") {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "deadlock", Engine: "runner", Detail: fmt.Sprintf("error %v, want a deadlock report", run.Err)})
		return
	}
	for _, name := range []string{"inproc", "tcp"} {
		if e := rep.Engine(name); e.Err == nil || e.Err.Error() != run.Err.Error() {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "deadlock", Engine: name, Detail: fmt.Sprintf("error %v, want the runner's %q", e.Err, run.Err)})
		}
	}
	if tcp := rep.Engine("tcp"); tcp.Took > time.Second {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "deadlock", Engine: "tcp", Detail: fmt.Sprintf("deadlock reported after %v, want within 1s", tcp.Took)})
	}
}

// checkCounts verifies that the engine's run was counted once: what
// its runner's exec.Stats gained equals a fold of the run's own trace
// (every task end, duplicates too; every msg-send, msg-recv, msg-retry
// and fault event). A run added twice, or not at all, fails it; so does
// a count the log does not back. It returns "" when they agree.
func checkCounts(e *EngineRun) string {
	var want exec.StatsSnapshot
	for _, ev := range e.Trace.Events {
		switch ev.Kind {
		case trace.TaskEnd:
			want.TasksRun++
		case trace.MsgSend:
			want.MsgsSent++
		case trace.MsgRecv:
			want.MsgsRecv++
		case trace.MsgRetry:
			want.Retries++
		case trace.FaultInjected:
			want.FaultsInjected++
		}
	}
	got := e.Stats
	got.Recoveries, got.RemoteSends, got.RemoteFlushes = 0, 0, 0
	if got != want {
		return fmt.Sprintf("exec.Stats %+v != the trace's fold %+v", got, want)
	}
	return ""
}

// checkRetries verifies the one retransmission rule: a copy is resent
// once, at the send, exactly when the fault plan dropped or corrupted it.
// In virtual time the runner's retries are therefore exactly its sends
// that a fired drop or corrupt fault hit (a send two faults hit is
// resent once; its fault events share the send's sequence number). On
// the wall-clock engines they are at most that: a resend a delay fault
// held back is skipped once its era's recovery barrier has formed.
func checkRetries(rep *Report, e *EngineRun) {
	type send struct {
		at  machine.Time
		seq uint64
	}
	retries, hit := 0, map[send]bool{}
	for _, ev := range e.Trace.Events {
		switch {
		case ev.Kind == trace.MsgRetry:
			retries++
		case ev.Kind == trace.FaultInjected && (ev.Note == "drop" || ev.Note == "corrupt"):
			hit[send{ev.At, ev.Seq}] = true
		}
	}
	if retries > len(hit) || (e.Name == "runner" && retries != len(hit)) {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "retries", Engine: e.Name,
			Detail: fmt.Sprintf("%d msg-retry events for %d dropped or corrupted sends", retries, len(hit))})
	}
}

// compareTraces diffs the simulated and executed traces. Sequence
// numbers are zeroed on the run side: they are allocation order, which
// depends on goroutine interleaving, and the simulator leaves them 0.
func compareTraces(rep *Report, sim, run *trace.Trace) {
	if len(run.Events) != len(sim.Events) {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "trace-vs-sim", Engine: "runner",
			Detail: fmt.Sprintf("%d run events vs %d simulated", len(run.Events), len(sim.Events))})
		return
	}
	const maxDiffs = 3
	diffs := 0
	for i := range sim.Events {
		ge := run.Events[i]
		ge.Seq = 0
		if ge != sim.Events[i] {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "trace-vs-sim", Engine: "runner",
				Detail: fmt.Sprintf("event %d: run %+v != simulated %+v", i, run.Events[i], sim.Events[i])})
			if diffs++; diffs >= maxDiffs {
				return
			}
		}
	}
}

// maxTaskEnd returns the latest task completion in the trace.
func maxTaskEnd(tr *trace.Trace) (end machine.Time) {
	for _, e := range tr.Events {
		if e.Kind == trace.TaskEnd && e.At > end {
			end = e.At
		}
	}
	return end
}

// checkCausality verifies the runner trace is causally sound: every
// receive matches a recorded send by sequence number, and — when no
// crash rewinds an era — no receive precedes its send and each
// processor's task intervals are disjoint.
func checkCausality(rep *Report, tr *trace.Trace) {
	c := rep.Case
	sends := map[uint64]trace.Event{}
	for _, e := range tr.Events {
		if e.Kind == trace.MsgSend {
			sends[e.Seq] = e
		}
	}
	for _, e := range tr.Events {
		if e.Kind != trace.MsgRecv {
			continue
		}
		s, ok := sends[e.Seq]
		if !ok {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "causality", Engine: "runner",
				Detail: fmt.Sprintf("receive of %s (seq %d) has no matching send", e.Var, e.Seq)})
			continue
		}
		if !c.HasCrash() && e.At < s.At {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "causality", Engine: "runner",
				Detail: fmt.Sprintf("receive of %s at %s precedes its send at %s", e.Var, e.At, s.At)})
		}
	}
	if c.Faults != nil {
		return
	}
	// Per-PE slot monotonicity: pair each task's start and end on its
	// processor and require the intervals not to overlap.
	type span struct{ start, end machine.Time }
	perPE := map[int][]span{}
	open := map[int]map[graph.NodeID]machine.Time{}
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.TaskStart:
			if open[e.PE] == nil {
				open[e.PE] = map[graph.NodeID]machine.Time{}
			}
			open[e.PE][e.Task] = e.At
		case trace.TaskEnd:
			st, ok := open[e.PE][e.Task]
			if !ok {
				rep.Divergences = append(rep.Divergences, Divergence{
					Oracle: "causality", Engine: "runner",
					Detail: fmt.Sprintf("task %s ends on PE %d without starting", e.Task, e.PE)})
				continue
			}
			delete(open[e.PE], e.Task)
			perPE[e.PE] = append(perPE[e.PE], span{st, e.At})
		}
	}
	for pe, opens := range open {
		for task := range opens {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "causality", Engine: "runner",
				Detail: fmt.Sprintf("task %s starts on PE %d and never ends", task, pe)})
		}
	}
	for pe, spans := range perPE {
		sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for i := 1; i < len(spans); i++ {
			if spans[i].start < spans[i-1].end {
				rep.Divergences = append(rep.Divergences, Divergence{
					Oracle: "causality", Engine: "runner",
					Detail: fmt.Sprintf("PE %d runs overlapping tasks (%s < %s)", pe, spans[i].start, spans[i-1].end)})
			}
		}
	}
}

// checkConservation verifies message conservation in the runner trace.
// Crash-free, every logical delivery is sent exactly once and consumed
// exactly once — resending a dropped or corrupted copy heals it, and
// receivers absorb duplicates, without extra MsgSend/MsgRecv events, so
// the counts match per (producer, consumer, variable) key even under
// message faults. After a crash, re-executed eras re-send work whose
// receipts the new epoch may discard, so sends may only exceed
// receives, never undershoot them.
func checkConservation(rep *Report, tr *trace.Trace) {
	type key struct {
		task graph.NodeID
		v    string
	}
	sends, recvs := map[key]int{}, map[key]int{}
	var totalSend, totalRecv int
	for _, e := range tr.Events {
		switch e.Kind {
		case trace.MsgSend:
			sends[key{e.Task, e.Var}]++
			totalSend++
		case trace.MsgRecv:
			// MsgRecv events carry the producer task, same as MsgSend,
			// so the per-key counts are directly comparable.
			recvs[key{e.Task, e.Var}]++
			totalRecv++
		}
	}
	if rep.Case.HasCrash() {
		if totalSend < totalRecv {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "conservation", Engine: "runner",
				Detail: fmt.Sprintf("%d sends < %d receives after crash recovery", totalSend, totalRecv)})
		}
		return
	}
	if totalSend != totalRecv {
		rep.Divergences = append(rep.Divergences, Divergence{
			Oracle: "conservation", Engine: "runner",
			Detail: fmt.Sprintf("%d sends != %d receives", totalSend, totalRecv)})
		return
	}
	for k, n := range sends {
		if recvs[k] != n {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "conservation", Engine: "runner",
				Detail: fmt.Sprintf("%s/%s sent %d times, received %d", k.task, k.v, n, recvs[k])})
		}
	}
}

func stringsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
