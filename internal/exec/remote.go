package exec

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file is the seam between a hosted execution session and whatever
// drives it: the types a session exchanges with its RemotePlane. Every
// session has one. A single-process run hosts the whole machine in one
// session, so its plane never carries a delivery and only hears quiet
// and crash reports (runner.go); a distributed run hosts a subset of
// the processors per OS process and hands every cross-process delivery,
// quiet report and crash report to internal/wire.

// RemoteMsg is one scheduled delivery crossing a process boundary: the
// wire-facing form of the runner's internal message. Process-boundary
// reliability belongs to the transport; injected faults were applied,
// and resent, by the sender (see transmit).
type RemoteMsg struct {
	From, To graph.NodeID
	Var      string
	FromPE   int
	ToPE     int
	// Seq identifies the logical transmission; injected duplicates
	// share it, so receivers can absorb them.
	Seq uint64
	// Epoch is the recovery era the message belongs to; receivers
	// discard messages from dead eras.
	Epoch int64
	// At is the virtual arrival stamp (VirtualTime runs).
	At machine.Time
	// Sum is the fnv64a checksum of the original payload when corrupt
	// faults armed end-to-end checksums (0 = unchecked). The transport
	// adds its own frame-level checksum independently.
	Sum uint64
	Val pits.Value
}

// RemotePlane connects a session to the rest of its run: the processors
// it does not host, and the lifecycle that decides what happens next. Implementations must be safe for
// concurrent use: worker goroutines deliver concurrently.
type RemotePlane interface {
	// DeliverRemote ships one message toward the process hosting
	// m.ToPE. It may hold the message back until the next FlushRemote.
	// An error fails the sending task (and so the run).
	DeliverRemote(m RemoteMsg) error
	// FlushRemote puts every message DeliverRemote holds on its way.
	// The session calls it at the end of each burst that handed the
	// plane at least one message: a slot's sends, an era's re-sends, a
	// delivery a delay fault held back. Nothing else decides when a held
	// message leaves.
	FlushRemote()
	// Quiet reports that the session fell quiet (see Report), once per
	// quiet spell, or answers a Probe. Its member is the driver's to set.
	Quiet(q Quiet)
	// LocalCrash reports an injected crash killing locally-hosted
	// processor pe. The run's lifecycle must drive a recovery.
	LocalCrash(pe int)
}

// Report is what a session says of itself: whenever it falls quiet —
// every live processor it hosts is through its slot list or waiting
// for a message, it owes no delivery, no hosted crash awaits its replan and no
// barrier is forming — and whenever a Probe asks. Sent and Recv count
// the remote copies of era Epoch it handed its plane and took in; a copy
// of the next era that arrives before the session resumes into it is
// counted with that era. A quiet session with no processor Waiting is
// idle; only a probe's answer can be Busy (the session is not quiet
// now). Two reports are one state when they are equal.
type Report struct {
	Epoch   int64 `json:"e,omitempty"`
	Sent    int64 `json:"s,omitempty"`
	Recv    int64 `json:"r,omitempty"`
	Waiting bool  `json:"w,omitempty"`
	Busy    bool  `json:"b,omitempty"`
}

// Wait is one blocked processor, and the line a deadlock report gives it.
type Wait struct {
	PE   int    `json:"pe"`
	Line string `json:"line"`
}

// Partial is one process's share of a run's result: qualified external
// outputs, the export name map, print lines and raw trace events. The
// coordinator merges partials with MergePartials.
type Partial struct {
	// Outputs holds qualified "task.var" external outputs of the
	// process's surviving workers.
	Outputs pits.Env
	// Exports maps unqualified external output names to the exporting
	// task.
	Exports map[string]graph.NodeID
	Printed []string
	// PrintedPE tags each Printed line with the processor that printed
	// it (len(PrintedPE) == len(Printed)); MergePartials uses the tags
	// to restore ascending-processor print order when processors are
	// placed non-contiguously across workers.
	PrintedPE []int
	Events    []trace.Event
	// A partial that crossed the wire holds its events still encoded
	// instead: NumEvents of them, a count checked on arrival, which
	// AppendEvents decodes onto the run's log when the partials merge.
	NumEvents    int
	AppendEvents func(dst []trace.Event) ([]trace.Event, error)
	// RemoteSends and RemoteFlushes are the session's counts of its
	// remote plane (see StatsSnapshot): the one thing a run counts that
	// its log does not record.
	RemoteSends, RemoteFlushes int64
}

// PauseState is what a paused session reports so the coordinator can
// plan a global recovery.
type PauseState struct {
	// Done maps each task whose result survives in this process to the
	// lowest live local processor holding it.
	Done map[graph.NodeID]int
	// Held lists the qualified "task.var" external output keys already
	// exported in this process (recovery uses it to adopt orphans).
	Held []string
	// Dead lists locally-hosted processors that have crashed.
	Dead []int
	// Clock is the latest virtual clock among live local processors
	// (VirtualTime runs; the coordinator stamps recovery events with
	// the global maximum).
	Clock machine.Time

	// The fields below are populated only by Pause(true) (a graceful
	// drain's checkpoint): the departing process hands its entire
	// contribution to the run over to the coordinator, so nothing is
	// lost when it leaves.

	// Local is the worker-local env checkpoint: the full output
	// environment of every task in Done. Survivors import these at the
	// resume barrier and take over re-sends and adoptions.
	Local map[graph.NodeID]pits.Env
	// Printed and PrintedPE are the print lines produced so far, tagged
	// by processor (the departing worker's partial result will never
	// arrive, so they travel with the checkpoint).
	Printed   []string
	PrintedPE []int
	// Events are the trace events recorded so far, for the same reason.
	Events []trace.Event
}

// Adoption instructs a surviving holder of a finished task's result to
// export an external output whose original exporting copy died.
type Adoption struct {
	Task graph.NodeID
	Var  string
	PE   int
}

// ResumePlan is the recovery assignment a session installs at the
// barrier: the global replan restricted by each process to its hosted
// processors.
type ResumePlan struct {
	// Epoch is the new era; messages from older eras are discarded.
	Epoch int64
	// Slots and Msgs are the full recovery plan (sched.Replan's
	// Reassignment); sessions derive their hosted processors' share.
	Slots []sched.Slot
	Msgs  []sched.Msg
	// Done maps surviving tasks to their holding processor (the
	// checkpoint): deliveries from them are re-sends, not re-runs.
	Done map[graph.NodeID]int
	// Dead flags every processor of the machine that is gone.
	Dead []bool
	// Adopt lists orphaned external outputs to re-export locally.
	Adopt []Adoption
	// Imports install surviving task results handed over by a drained
	// worker into a new holder's local store, before re-sends and
	// adoptions run. Imports naming remote holders are skipped.
	Imports []Import
	// Clock is the latest virtual clock parked at the barrier: a session
	// joining mid-run starts its processors there, so its trace stamps
	// continue the run's timeline instead of restarting at zero.
	Clock machine.Time
}

// Import is one surviving task result re-homed by a graceful drain:
// the drained worker's env checkpoint for Task, to be installed in the
// local store of processor PE.
type Import struct {
	Task graph.NodeID
	PE   int
	Env  pits.Env
}

// MergePartials combines per-process partial results into a run's
// external outputs and print lines: qualified keys are unioned, and
// each unqualified external output name is bound to its single
// exporting task — two tasks exporting the same name is an error, with
// the qualified keys to read instead.
//
// Print lines merge in ascending-processor order by their PrintedPE
// tags — the order a single-process run prints in, regardless of which
// worker hosted which processor. A partial whose tags do not match its
// lines one to one is malformed and an error.
func MergePartials(parts ...*Partial) (pits.Env, []string, error) {
	outputs := pits.Env{}
	owner := map[string]graph.NodeID{}
	var printed []string
	var printedPEs []int
	for _, p := range parts {
		if p == nil {
			continue
		}
		if len(p.PrintedPE) != len(p.Printed) {
			return nil, nil, fmt.Errorf("exec: partial result tags %d of its %d print lines with a processor",
				len(p.PrintedPE), len(p.Printed))
		}
		for k, v := range p.Outputs {
			outputs[k] = v
		}
		printed = append(printed, p.Printed...)
		printedPEs = append(printedPEs, p.PrintedPE...)
	}
	if len(printed) > 0 {
		// Stable sort by processor only: each processor's lines keep
		// their chronological order (a processor lives in one partial
		// per era, and partials arrive in era order).
		idx := make([]int, len(printed))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return printedPEs[idx[a]] < printedPEs[idx[b]] })
		sorted := make([]string, len(printed))
		for i, j := range idx {
			sorted[i] = printed[j]
		}
		printed = sorted
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		for v, task := range p.Exports {
			if prev, clash := owner[v]; clash && prev != task {
				return nil, nil, exportCollision(v, prev, task)
			}
			owner[v] = task
			outputs[v] = outputs[string(task)+"."+v]
		}
	}
	return outputs, printed, nil
}

// exportCollision is the shared error for two tasks exporting the same
// unqualified external output name.
func exportCollision(v string, a, b graph.NodeID) error {
	if b < a {
		a, b = b, a
	}
	return fmt.Errorf("exec: external output %q exported by both task %s and task %s; rename one or read the qualified keys %q and %q",
		v, a, b, string(a)+"."+v, string(b)+"."+v)
}
