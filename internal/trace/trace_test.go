package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// CheckSpans is tr.Spans(), cross-checked against Summarize, which pairs
// the same log without storing a span: the tasks, duplicate copies and
// busy time it counts and the error it returns must be what the stored
// spans give. Every trace this package's tests pair goes through it.
func CheckSpans(t testing.TB, tr *Trace) (map[int][]Span, error) {
	t.Helper()
	spans, err := tr.Spans()
	st, serr := tr.Summarize(1)
	if fmt.Sprint(err) != fmt.Sprint(serr) {
		t.Errorf("Spans fails with %v, Summarize with %v", err, serr)
	}
	if err != nil || serr != nil {
		return spans, err
	}
	tasks, dups, busy := 0, 0, map[int]machine.Time{}
	for pe, ss := range spans {
		for _, s := range ss {
			busy[pe] += s.Finish - s.Start
			if s.Dup {
				dups++
			} else {
				tasks++
			}
		}
	}
	if st.TasksRun != tasks || st.DupsRun != dups || !reflect.DeepEqual(st.BusyByPE, busy) {
		t.Errorf("Summarize counts %d tasks, %d duplicates, busy %v; the spans give %d, %d, %v",
			st.TasksRun, st.DupsRun, st.BusyByPE, tasks, dups, busy)
	}
	return spans, err
}

func TestSpansPairing(t *testing.T) {
	tr := &Trace{Label: "t"}
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 10, Task: "b", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 25, Task: "b", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 5, Task: "c", PE: 1, Dup: true})
	tr.Add(Event{Kind: TaskEnd, At: 9, Task: "c", PE: 1, Dup: true})
	spans, err := CheckSpans(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans[0]) != 2 || len(spans[1]) != 1 {
		t.Fatalf("spans = %v", spans)
	}
	if spans[0][0].Task != "a" || spans[0][0].Finish != 10 {
		t.Errorf("span = %+v", spans[0][0])
	}
	if !spans[1][0].Dup {
		t.Error("dup flag lost")
	}
}

func TestSpansDetectInconsistency(t *testing.T) {
	overlap := &Trace{}
	overlap.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	overlap.Add(Event{Kind: TaskStart, At: 1, Task: "b", PE: 0})
	if _, err := CheckSpans(t, overlap); err == nil {
		t.Error("overlapping starts accepted")
	}
	orphanEnd := &Trace{}
	orphanEnd.Add(Event{Kind: TaskEnd, At: 5, Task: "a", PE: 0})
	if _, err := CheckSpans(t, orphanEnd); err == nil {
		t.Error("end without start accepted")
	}
	neverEnds := &Trace{}
	neverEnds.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	if _, err := CheckSpans(t, neverEnds); err == nil {
		t.Error("unterminated task accepted")
	}
}

// TestSpansZeroLength: a task that starts and ends inside one instant
// is a span. Sort puts the instant's ends first, so the pairing is by
// task: here "a" ends, "X" (before "a" by name, so its end sorts first)
// runs in no time at all, and "b" starts — all at 10 on PE 0.
func TestSpansZeroLength(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 10, Task: "X", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "X", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 10, Task: "b", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 12, Task: "b", PE: 0})
	// Two zero-length tasks at one instant, one of them a duplicate copy.
	tr.Add(Event{Kind: TaskStart, At: 10, Task: "p", PE: 1})
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "p", PE: 1})
	tr.Add(Event{Kind: TaskStart, At: 10, Task: "q", PE: 1, Dup: true})
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "q", PE: 1, Dup: true})
	spans, err := CheckSpans(t, tr)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]Span{
		0: {{"a", 0, 10, false}, {"X", 10, 10, false}, {"b", 10, 12, false}},
		1: {{"p", 10, 10, false}, {"q", 10, 10, true}},
	}
	if !reflect.DeepEqual(spans, want) {
		t.Errorf("spans = %v, want %v", spans, want)
	}
	st, err := tr.Summarize(2)
	if err != nil || st.TasksRun != 4 || st.DupsRun != 1 || st.BusyByPE[0] != 12 {
		t.Errorf("summary %+v, err %v", st, err)
	}
}

// TestSpansZeroLengthStillChecked: pairing inside an instant excuses
// nothing else.
func TestSpansZeroLengthStillChecked(t *testing.T) {
	for name, c := range map[string]struct {
		events []Event
		want   string
	}{
		"end without start beside a zero-length task": {[]Event{
			{Kind: TaskStart, At: 5, Task: "x", PE: 0}, {Kind: TaskEnd, At: 5, Task: "x", PE: 0},
			{Kind: TaskEnd, At: 5, Task: "y", PE: 0}}, `ends "y" without matching start`},
		"end whose start is a different copy": {[]Event{
			{Kind: TaskStart, At: 5, Task: "x", PE: 0, Dup: true}, {Kind: TaskEnd, At: 5, Task: "x", PE: 0}},
			`ends "x" without matching start`},
		"end whose start comes an instant later": {[]Event{
			{Kind: TaskEnd, At: 5, Task: "x", PE: 0}, {Kind: TaskStart, At: 6, Task: "x", PE: 0}},
			`ends "x" without matching start`},
		"two starts left open at one instant": {[]Event{
			{Kind: TaskStart, At: 5, Task: "x", PE: 0}, {Kind: TaskStart, At: 5, Task: "y", PE: 0},
			{Kind: TaskEnd, At: 9, Task: "x", PE: 0}, {Kind: TaskEnd, At: 9, Task: "y", PE: 0}},
			`starts "y" while "x" still running`},
		"zero-length task inside a running one": {[]Event{
			{Kind: TaskStart, At: 0, Task: "a", PE: 0}, {Kind: TaskStart, At: 5, Task: "x", PE: 0},
			{Kind: TaskEnd, At: 5, Task: "x", PE: 0}, {Kind: TaskEnd, At: 9, Task: "a", PE: 0}},
			`starts "x" while "a" still running`},
		"start after a zero-length task never ends": {[]Event{
			{Kind: TaskStart, At: 5, Task: "x", PE: 0}, {Kind: TaskEnd, At: 5, Task: "x", PE: 0},
			{Kind: TaskStart, At: 5, Task: "y", PE: 0}}, `never ends "y"`},
	} {
		_, err := CheckSpans(t, &Trace{Events: c.events})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", name, err, c.want)
		}
	}
}

// sortReference is Sort as it was written over sort.SliceStable and a
// map of kind ranks: the order every golden trace was recorded in.
func sortReference(evs []Event) {
	kindOrder := map[Kind]int{TaskEnd: 0, MsgSend: 1, MsgRecv: 2, TaskStart: 3,
		FaultInjected: 4, MsgRetry: 5, TaskRescheduled: 6,
		PeerConnected: 7, PeerLost: 8, WireBytes: 9, WorkerDrained: 10}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.PE != b.PE {
			return a.PE < b.PE
		}
		if a.Kind != b.Kind {
			return kindOrder[a.Kind] < kindOrder[b.Kind]
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.Var != b.Var {
			return a.Var < b.Var
		}
		return a.Peer < b.Peer
	})
}

// TestSortMatchesReference: 200 seeded shuffles drawn from small value
// ranges, so every prefix of the key ties often and events equal on the
// whole key differ only in Dup, Seq and Note — where stability shows.
func TestSortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		evs := make([]Event, 1+rng.Intn(300))
		for i := range evs {
			evs[i] = Event{Kind: Kind(rng.Intn(len(Kinds()))), At: machine.Time(rng.Intn(4)), PE: rng.Intn(3),
				Task: graph.NodeID(fmt.Sprint("t", rng.Intn(3))), Var: fmt.Sprint("v", rng.Intn(2)), Peer: rng.Intn(2),
				Seq: uint64(i), Dup: rng.Intn(2) == 0, Note: fmt.Sprint(rng.Intn(5))}
		}
		want := append([]Event(nil), evs...)
		sortReference(want)
		tr := &Trace{Events: evs}
		tr.Sort()
		if !reflect.DeepEqual(tr.Events, want) {
			t.Fatalf("round %d: Sort and the reference disagree on %d events", round, len(evs))
		}
		if allocs := testing.AllocsPerRun(10, tr.Sort); allocs != 0 {
			t.Fatalf("round %d: Sort of a sorted log allocates %v times", round, allocs)
		}
	}
	// A kind the wire decoded but the rank table lacks must sort, not panic.
	(&Trace{Events: []Event{{Kind: 99, At: 1}, {Kind: TaskEnd}}}).Sort()
}

func TestSummarize(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 10, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 0, Task: "b", PE: 1, Dup: true})
	tr.Add(Event{Kind: TaskEnd, At: 5, Task: "b", PE: 1, Dup: true})
	tr.Add(Event{Kind: MsgSend, At: 10, Task: "a", PE: 0, Var: "v", Peer: 1})
	tr.Add(Event{Kind: MsgRecv, At: 12, Task: "a", PE: 1, Var: "v", Peer: 0})
	CheckSpans(t, tr)
	st, err := tr.Summarize(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan != 12 {
		t.Errorf("makespan = %v", st.Makespan)
	}
	if st.TasksRun != 1 || st.DupsRun != 1 || st.Msgs != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.BusyByPE[0] != 10 || st.BusyByPE[1] != 5 {
		t.Errorf("busy = %v", st.BusyByPE)
	}
	wantUtil := float64(15) / float64(12*2)
	if st.Utilization < wantUtil-1e-9 || st.Utilization > wantUtil+1e-9 {
		t.Errorf("utilization = %f, want %f", st.Utilization, wantUtil)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st, err := (&Trace{}).Summarize(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Makespan != 0 || st.Utilization != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSortDeterministic(t *testing.T) {
	tr := &Trace{}
	tr.Add(Event{Kind: TaskEnd, At: 5, Task: "b", PE: 1})
	tr.Add(Event{Kind: TaskStart, At: 5, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 1, Task: "c", PE: 2})
	tr.Sort()
	if tr.Events[0].Task != "c" || tr.Events[1].PE != 0 {
		t.Errorf("order = %v", tr.Events)
	}
}

func TestStringRendersEvents(t *testing.T) {
	tr := &Trace{Label: "demo"}
	tr.Add(Event{Kind: TaskStart, At: 0, Task: "a", PE: 0})
	tr.Add(Event{Kind: TaskEnd, At: 3, Task: "a", PE: 0})
	tr.Add(Event{Kind: MsgSend, At: 3, Task: "a", PE: 0, Var: "v", Peer: 1})
	s := tr.String()
	for _, want := range []string{"demo", "task-start", "task-end", "msg-send", "a:v"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestKindString(t *testing.T) {
	if TaskStart.String() != "task-start" || Kind(42).String() != "kind(42)" {
		t.Error("kind names wrong")
	}
}

func TestMakespan(t *testing.T) {
	tr := &Trace{}
	if tr.Makespan() != machine.Time(0) {
		t.Error("empty trace makespan != 0")
	}
	tr.Add(Event{Kind: TaskEnd, At: 99, Task: "x", PE: 0})
	tr.Add(Event{Kind: TaskStart, At: 5, Task: "x", PE: 0})
	if tr.Makespan() != 99 {
		t.Errorf("makespan = %v", tr.Makespan())
	}
}
