// Package trace records and analyses execution event streams produced
// by the simulator and the parallel runner: Banger's raw material for
// Gantt charts, utilisation reports and predicted-versus-actual
// comparisons.
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Kind classifies events.
type Kind int

// Event kinds.
const (
	TaskStart Kind = iota
	TaskEnd
	MsgSend
	MsgRecv
	// FaultInjected records the chaos harness applying an injected
	// fault: a message dropped/duplicated/delayed/corrupted at the
	// sender, or a processor crash. Note carries the fault kind.
	FaultInjected
	// MsgRetry records the resend of a message copy the fault plan
	// dropped or corrupted (the sender's Retry rule).
	MsgRetry
	// TaskRescheduled records the recovery planner moving a task to a
	// live processor after a crash; Peer is the processor the task was
	// originally placed on.
	TaskRescheduled
	// PeerConnected records a distributed run attaching a worker
	// process: Peer is the worker index, Note its address.
	PeerConnected
	// PeerLost records a worker process declared dead (heartbeat loss
	// or unrecoverable connection failure); its processors are treated
	// exactly like crashed PEs. Peer is the worker index.
	PeerLost
	// WireBytes records the bytes a distributed run moved over one peer
	// connection (Bytes totals both directions, Note breaks them down).
	WireBytes
	// WorkerDrained records a graceful drain evacuating a worker
	// process: a planned departure with zero lost state, unlike
	// PeerLost. Peer is the worker index, Note its address.
	WorkerDrained
)

// String returns the event kind name.
func (k Kind) String() string {
	switch k {
	case TaskStart:
		return "task-start"
	case TaskEnd:
		return "task-end"
	case MsgSend:
		return "msg-send"
	case MsgRecv:
		return "msg-recv"
	case FaultInjected:
		return "fault"
	case MsgRetry:
		return "msg-retry"
	case TaskRescheduled:
		return "rescheduled"
	case PeerConnected:
		return "peer-up"
	case PeerLost:
		return "peer-lost"
	case WireBytes:
		return "wire-bytes"
	case WorkerDrained:
		return "drained"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every event kind once, in declaration order.
func Kinds() []Kind {
	return []Kind{TaskStart, TaskEnd, MsgSend, MsgRecv, FaultInjected,
		MsgRetry, TaskRescheduled, PeerConnected, PeerLost, WireBytes,
		WorkerDrained}
}

// ParseKind inverts Kind.String.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one timestamped occurrence on a processor.
type Event struct {
	Kind  Kind
	At    machine.Time
	Task  graph.NodeID // task starting/ending, or message producer
	PE    int          // where the event happens
	Var   string       // message variable (message events only)
	Peer  int          // the other processor (message events only)
	Seq   uint64       // logical transmission number (message events; 0 = unnumbered)
	Dup   bool         // event belongs to a duplicate copy
	Note  string       // free-form detail (fault kind, retry attempt)
	Bytes int64        // payload size (wire events only)
}

// Trace is an event log. Events may be appended in any order; callers
// sort once before analysis.
type Trace struct {
	Label  string
	Events []Event
}

// Add appends an event.
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// kindOrder ranks events sharing a timestamp: a task ending at t
// precedes a message sent at t, which precedes a message received at t,
// which precedes a task starting at t — the causal order of a
// back-to-back schedule. It is indexed by the kind's low byte, all the
// wire carries, so a kind it does not list ranks 0 instead of panicking.
var kindOrder = [256]int8{TaskEnd: 0, MsgSend: 1, MsgRecv: 2, TaskStart: 3,
	FaultInjected: 4, MsgRetry: 5, TaskRescheduled: 6,
	PeerConnected: 7, PeerLost: 8, WireBytes: 9, WorkerDrained: 10}

// compare is the sort key: time, processor, causal kind order, task,
// variable, peer.
func compare(a, b *Event) int {
	switch {
	case a.At != b.At:
		return cmp.Compare(a.At, b.At)
	case a.PE != b.PE:
		return cmp.Compare(a.PE, b.PE)
	case a.Kind != b.Kind:
		return cmp.Compare(kindOrder[uint8(a.Kind)], kindOrder[uint8(b.Kind)])
	case a.Task != b.Task:
		return cmp.Compare(a.Task, b.Task)
	case a.Var != b.Var:
		return cmp.Compare(a.Var, b.Var)
	}
	return cmp.Compare(a.Peer, b.Peer)
}

// Sort orders events by time, then processor, then causal kind order,
// then task, variable and peer, giving a deterministic log for
// rendering and comparison; events equal on the whole key keep their
// order. The full key matters when diffing traces from different
// engines: two messages from one task at one instant must land in the
// same order regardless of which engine emitted them. A log already in
// order — every Sort of a run's trace after the first — costs one pass.
func (t *Trace) Sort() {
	evs := t.Events
	// A run's log is its workers' logs end to end, each nearly in order:
	// a few hundred ascending stretches. Find where each ends.
	ends := make([]int, 0, 256) // on the stack: a sorted log allocates nothing
	for i := 1; i < len(evs); i++ {
		if compare(&evs[i-1], &evs[i]) > 0 {
			ends = append(ends, i)
		}
	}
	if len(ends) == 0 {
		return
	}
	ends = append(ends, len(evs))
	// Merge the stretches pairwise, as positions, until one is left (on
	// a tie the left stretch goes first: stable); then move each
	// 104-byte event once.
	idx, buf := make([]int32, len(evs)), make([]int32, len(evs))
	for i := range idx {
		idx[i] = int32(i)
	}
	for ; len(ends) > 1; idx, buf = buf, idx {
		lo, merged := 0, ends[:0]
		for r := 0; r < len(ends); r += 2 {
			mid, hi := ends[r], ends[min(r+1, len(ends)-1)]
			for a, b, k := lo, mid, lo; k < hi; k++ {
				if b == hi || a < mid && compare(&evs[idx[a]], &evs[idx[b]]) <= 0 {
					buf[k], a = idx[a], a+1
				} else {
					buf[k], b = idx[b], b+1
				}
			}
			lo, merged = hi, append(merged, hi)
		}
		ends = merged
	}
	for k := range idx {
		if int(idx[k]) == k {
			continue
		}
		first, at := evs[k], k
		for src := int(idx[at]); src != k; src = int(idx[at]) {
			evs[at], idx[at] = evs[src], int32(at)
			at = src
		}
		evs[at], idx[at] = first, int32(at)
	}
}

// Makespan returns the time of the latest event.
func (t *Trace) Makespan() machine.Time {
	var m machine.Time
	for _, e := range t.Events {
		if e.At > m {
			m = e.At
		}
	}
	return m
}

// Span is one busy interval of a processor.
type Span struct {
	Task   graph.NodeID
	Start  machine.Time
	Finish machine.Time
	Dup    bool
}

// Spans reconstructs per-processor busy intervals by pairing
// TaskStart/TaskEnd events. It returns an error if the log is
// inconsistent (end without start, overlapping starts on one PE).
func (t *Trace) Spans() (map[int][]Span, error) {
	out := map[int][]Span{}
	if err := t.pair(func(pe int, s Span) { out[pe] = append(out[pe], s) }); err != nil {
		return nil, err
	}
	return out, nil
}

// pair sorts the log and hands each busy interval to span as it pairs
// it, storing none: Spans collects them, Summarize only counts them.
//
// Events of one instant on one processor pair by task, not by
// position: Sort puts that instant's ends ahead of its starts, right
// for back-to-back slots and backwards for a task that starts and ends
// inside it. So an end that does not name the running task waits for a
// start of the same task and Dup at the same instant, and the two make
// a span of zero length.
func (t *Trace) pair(span func(pe int, s Span)) error {
	t.Sort()
	open := map[int]Span{}
	var early []*Event // ends of the current instant and PE still short of a start
	for i := range t.Events {
		e := &t.Events[i]
		if len(early) > 0 && (early[0].At != e.At || early[0].PE != e.PE) {
			break
		}
		sp, running := open[e.PE]
		switch e.Kind {
		case TaskEnd:
			if !running || sp.Task != e.Task {
				early = append(early, e)
				continue
			}
			sp.Finish = e.At
			span(e.PE, sp)
			delete(open, e.PE)
		case TaskStart:
			k := slices.IndexFunc(early, func(end *Event) bool { return end.Task == e.Task && end.Dup == e.Dup })
			switch {
			case running && (k < 0 || sp.Start < e.At):
				return fmt.Errorf("trace: PE %d starts %q while %q still running", e.PE, e.Task, sp.Task)
			case k >= 0:
				span(e.PE, Span{Task: e.Task, Start: e.At, Finish: e.At, Dup: e.Dup})
				early = slices.Delete(early, k, k+1)
			default:
				open[e.PE] = Span{Task: e.Task, Start: e.At, Dup: e.Dup}
			}
		}
	}
	if len(early) > 0 {
		return fmt.Errorf("trace: PE %d ends %q without matching start", early[0].PE, early[0].Task)
	}
	if len(open) > 0 {
		pe := math.MaxInt
		for p := range open {
			pe = min(pe, p)
		}
		return fmt.Errorf("trace: PE %d never ends %q", pe, open[pe].Task)
	}
	return nil
}

// Counts is one fold of a run's log: how many events of each countable
// kind it holds. exec.Stats adds one per finished run, and Summarize
// reports it, so the two cannot disagree.
type Counts struct {
	TasksRun    int   // task ends of primary copies
	DupsRun     int   // task ends of duplicate copies
	Msgs        int   // message sends
	MsgsRecv    int   // messages consumed by a task
	Faults      int   // injected faults recorded in the trace
	Retries     int   // message retransmissions
	Rescheduled int   // tasks moved by crash recovery
	Peers       int   // worker processes that joined a distributed run
	PeersLost   int   // worker processes declared dead mid-run
	Drained     int   // worker processes gracefully evacuated mid-run
	WireBytes   int64 // bytes moved over peer connections
}

// Count folds events into their counts, in one pass and allocating
// nothing.
func Count(events []Event) Counts {
	var c Counts
	for i := range events {
		e := &events[i]
		switch e.Kind {
		case TaskEnd:
			if e.Dup {
				c.DupsRun++
			} else {
				c.TasksRun++
			}
		case MsgSend:
			c.Msgs++
		case MsgRecv:
			c.MsgsRecv++
		case FaultInjected:
			c.Faults++
		case MsgRetry:
			c.Retries++
		case TaskRescheduled:
			c.Rescheduled++
		case PeerConnected:
			c.Peers++
		case PeerLost:
			c.PeersLost++
		case WorkerDrained:
			c.Drained++
		case WireBytes:
			c.WireBytes += e.Bytes
		}
	}
	return c
}

// Stats summarises a trace: its counts, and what its paired task spans
// say about time.
type Stats struct {
	Counts
	Makespan    machine.Time
	BusyByPE    map[int]machine.Time
	Utilization float64 // mean busy fraction over PEs that appear in the trace
}

// Summarize computes summary statistics. numPE is the machine size the
// trace ran on (idle processors count toward utilisation).
func (t *Trace) Summarize(numPE int) (*Stats, error) {
	st := &Stats{BusyByPE: map[int]machine.Time{}}
	err := t.pair(func(pe int, s Span) { st.BusyByPE[pe] += s.Finish - s.Start })
	if err != nil {
		return nil, err
	}
	st.Counts = Count(t.Events)
	st.Makespan = t.Makespan()
	if st.Makespan > 0 && numPE > 0 {
		var busy machine.Time
		for _, b := range st.BusyByPE {
			busy += b
		}
		st.Utilization = float64(busy) / (float64(st.Makespan) * float64(numPE))
	}
	return st, nil
}

// String renders the trace as one line per event.
func (t *Trace) String() string {
	t.Sort()
	var b strings.Builder
	fmt.Fprintf(&b, "trace %q: %d events\n", t.Label, len(t.Events))
	for _, e := range t.Events {
		switch e.Kind {
		case TaskStart, TaskEnd:
			fmt.Fprintf(&b, "  %8v PE%-2d %-10s %s", e.At, e.PE, e.Kind, e.Task)
			if e.Dup {
				b.WriteString(" (dup)")
			}
			b.WriteByte('\n')
		case FaultInjected, MsgRetry, TaskRescheduled:
			fmt.Fprintf(&b, "  %8v PE%-2d %-10s %s", e.At, e.PE, e.Kind, e.Task)
			if e.Var != "" {
				fmt.Fprintf(&b, ":%s", e.Var)
			}
			fmt.Fprintf(&b, " peer=PE%d", e.Peer)
			if e.Note != "" {
				fmt.Fprintf(&b, " (%s)", e.Note)
			}
			b.WriteByte('\n')
		case PeerConnected, PeerLost, WireBytes, WorkerDrained:
			fmt.Fprintf(&b, "  %8v %-10s worker=%d", e.At, e.Kind, e.Peer)
			if e.Kind == WireBytes {
				fmt.Fprintf(&b, " bytes=%d", e.Bytes)
			}
			if e.Note != "" {
				fmt.Fprintf(&b, " (%s)", e.Note)
			}
			b.WriteByte('\n')
		default:
			fmt.Fprintf(&b, "  %8v PE%-2d %-10s %s:%s peer=PE%d\n", e.At, e.PE, e.Kind, e.Task, e.Var, e.Peer)
		}
	}
	return b.String()
}
