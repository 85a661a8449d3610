package exec

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

// The lifecycle is a pure value, so every ordering the socket tests
// used to provoke with sleeps and scripted workers is a slice of events
// here. TestLifecycleTable pins the known corners one row each;
// TestLifecycleExplorer enumerates the orderings nobody thought of.
// Both count which (phase, event) pairs they drove through Step, and
// TestLifecycleCoverage fails if any of the 24 was never visited, or if
// no Probe was ever emitted.

var eventNames = []string{"Quiet", "Crash", "Parked", "Returned", "Lost", "JoinOffer", "JoinDialed", "DrainReq"}

// idle is member w's report that it is idle in era epoch.
func idle(w int, epoch int64) Quiet { return Quiet{W: w, Report: Report{Epoch: epoch}} }

func eventKind(ev Event) int {
	switch ev.(type) {
	case Quiet:
		return 0
	case Crash:
		return 1
	case Parked:
		return 2
	case Returned:
		return 3
	case Lost:
		return 4
	case JoinOffer:
		return 5
	case JoinDialed:
		return 6
	case DrainReq:
		return 7
	}
	panic(fmt.Sprintf("unknown event %T", ev))
}

// covered counts Step calls by the phase they found and the event they
// carried, over the table and the explorer together, and probed the
// Probe effects they returned; coverageFrom notes which of the two have
// run.
var (
	covered      [3][8]int
	probed       int
	coverageFrom = map[string]bool{}
)

func stepCounted(l *Lifecycle, ev Event, now machine.Time) ([]Effect, error) {
	covered[l.phase][eventKind(ev)]++
	effects, err := l.Step(ev, now)
	for _, ef := range effects {
		if _, ok := ef.(Probe); ok {
			probed++
		}
	}
	return effects, err
}

// lifecycleFixture is a 13-task layered design scheduled over four
// processors, every one of which gets work.
func lifecycleFixture(t *testing.T) (*sched.Schedule, *graph.Flat) {
	t.Helper()
	flat, _ := layeredCalc(t, 3, 4)
	s, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "hypercube:2", params()))
	if err != nil {
		t.Fatal(err)
	}
	for pe := 0; pe < 4; pe++ {
		if len(s.PESlots(pe)) == 0 {
			t.Fatalf("fixture leaves PE %d without work", pe)
		}
	}
	return s, flat
}

// show renders effects the way the table writes them down.
func show(effects []Effect) []string {
	var out []string
	for _, ef := range effects {
		switch e := ef.(type) {
		case Pause:
			if e.Checkpoint {
				out = append(out, fmt.Sprintf("Pause(%d,ckpt)", e.W))
			} else {
				out = append(out, fmt.Sprintf("Pause(%d)", e.W))
			}
		case Resume:
			out = append(out, fmt.Sprintf("Resume(%d,e%d)", e.W, e.Plan.Epoch))
		case Start:
			out = append(out, fmt.Sprintf("Start(%d,e%d)", e.W, e.Plan.Epoch))
		case Finish:
			out = append(out, fmt.Sprintf("Finish(%d)", e.W))
		case Probe:
			out = append(out, fmt.Sprintf("Probe(%d)", e.W))
		case Bye:
			out = append(out, fmt.Sprintf("Bye(%d)", e.W))
		case Dial:
			out = append(out, fmt.Sprintf("Dial(%s)", e.Addr))
		case Verdict:
			if e.Err == nil {
				out = append(out, fmt.Sprintf("Verdict(%v: ok)", e.Req))
			} else {
				out = append(out, fmt.Sprintf("Verdict(%v: %v)", e.Req, e.Err))
			}
		case Done:
			out = append(out, "Done")
		default:
			out = append(out, fmt.Sprintf("%T", ef))
		}
	}
	return out
}

func TestLifecycleTable(t *testing.T) {
	coverageFrom["table"] = true
	s, flat := lifecycleFixture(t)
	empty := &PauseState{}
	part := &Partial{}
	// Two members unless a row says otherwise: w0 hosts PEs 0-1, w1 PEs 2-3.
	type step struct {
		ev   Event
		want string // effects, space separated; or "error: " + substring
	}
	rows := []struct {
		name       string
		peerOf     []int // default {0,0,1,1}
		minWorkers int
		steps      []step
		check      func(t *testing.T, l *Lifecycle, last []Effect)
	}{
		{name: "clean run", steps: []step{
			{idle(0, 0), ""},
			{idle(1, 0), "Finish(0) Finish(1)"},
			{Returned{0, part}, ""},
			{Returned{1, part}, "Bye(0) Bye(1) Done"},
		}},
		{name: "crash while finishing fails the run, never pauses", steps: []step{
			{idle(0, 0), ""}, {idle(1, 0), "Finish(0) Finish(1)"},
			{Crash{1}, "error: wire: processor 1 crashed while the run was finishing; its results are lost"},
		}},
		{name: "stale parked while finishing is ignored", steps: []step{
			{idle(0, 0), ""}, {idle(1, 0), "Finish(0) Finish(1)"},
			{Parked{0, empty}, ""},
			{idle(0, 0), ""}, // so is a duplicate idle report
			{Returned{0, part}, ""}, {Returned{1, part}, "Bye(0) Bye(1) Done"},
		}},
		{name: "parked outside a pause is a protocol error", steps: []step{
			{Parked{0, empty}, "error: wire: worker 0 parked outside a pause"},
		}},
		{name: "join and drain while finishing are refused by name", steps: []step{
			{idle(0, 0), ""}, {idle(1, 0), "Finish(0) Finish(1)"},
			{JoinOffer{"joiner", "j"}, "Verdict(j: run is finishing; not accepting joins)"},
			{DrainReq{0, "", "d"}, "Verdict(d: run is finishing; nothing to drain)"},
			{Returned{0, part}, ""}, {Returned{1, part}, "Bye(0) Bye(1) Done"},
		}},
		{name: "join with no dead processor", steps: []step{
			{JoinOffer{"joiner", "j"}, "Verdict(j: no free capacity: every processor is live)"},
			{JoinOffer{"w1", "j2"}, "Verdict(j2: ok)"}, // already serving: idempotent welcome
		}},
		{name: "drain below MinWorkers", minWorkers: 2, steps: []step{
			{DrainReq{1, "", "d"}, "Verdict(d: drain would leave 1 workers; the minimum is 2)"},
		}},
		{name: "drain of the last live processors", steps: []step{
			{Crash{0}, "Pause(0) Pause(1)"},
			{Crash{1}, ""},
			{Parked{0, &PauseState{Dead: []int{0, 1}}}, ""},
			{Parked{1, empty}, "Resume(0,e1) Resume(1,e1)"},
			{DrainReq{1, "", "d"}, "Verdict(d: drain would leave no live processors)"},
		}},
		{name: "target crashes while draining: plain recovery instead", steps: []step{
			{DrainReq{1, "", "d"}, "Pause(0) Pause(1,ckpt)"},
			{DrainReq{0, "", "d2"}, "Verdict(d2: a recovery or fleet change is in progress; retry)"},
			{Lost{1}, "Verdict(d: worker 1 crashed while draining; recovering instead)"},
			{Parked{0, empty}, "Resume(0,e1)"},
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			if dead := last[0].(Resume).Plan.Dead; !slices.Equal(dead, []bool{false, false, true, true}) {
				t.Errorf("plan dead mask %v, want the lost target's processors", dead)
			}
		}},
		{name: "target crashes after the survivors parked", steps: []step{
			{DrainReq{-1, "w1", "d"}, "Pause(0) Pause(1,ckpt)"},
			{Parked{0, empty}, ""},
			{Lost{1}, "Verdict(d: worker 1 crashed while draining; recovering instead) Resume(0,e1)"},
		}},
		{name: "joiner dies before integration", steps: []step{
			{Lost{1}, "Pause(0)"},
			{Parked{0, empty}, "Resume(0,e1)"},
			{JoinOffer{"joiner", "j"}, "Dial(joiner)"},
			{JoinOffer{"other", "j2"}, "Verdict(j2: a recovery or fleet change is in progress; retry)"},
			{DrainReq{0, "", "d"}, "Verdict(d: a recovery or fleet change is in progress; retry)"},
			{JoinDialed{"joiner", nil}, "Pause(0)"},
			{DrainReq{2, "", "d2"}, "Verdict(d2: worker 2 still joining; retry)"},
			{Lost{2}, "Verdict(j: joining worker joiner died before integration)"},
			{Parked{0, empty}, "Resume(0,e2)"},
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			if dead := last[0].(Resume).Plan.Dead; !slices.Equal(dead, []bool{false, false, true, true}) {
				t.Errorf("plan dead mask %v: the dead joiner must revive nothing", dead)
			}
		}},
		{name: "crash folded into a forming barrier: one era", steps: []step{
			{Crash{3}, "Pause(0) Pause(1)"},
			{Crash{1}, ""},
			{Crash{3}, ""},   // duplicate report
			{idle(0, 0), ""}, // stale: it parks too
			{Parked{0, &PauseState{Dead: []int{1}}}, ""},
			{Parked{1, &PauseState{Dead: []int{3}}}, "Resume(0,e1) Resume(1,e1)"},
			{Crash{1}, ""}, // duplicate after the barrier: no second one
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			if got := l.recoveries; got != 1 {
				t.Errorf("Recoveries = %d after one crash barrier, want 1", got)
			}
		}},
		{name: "all processors dead, by crashes", steps: []step{
			{Crash{0}, "Pause(0) Pause(1)"}, {Crash{1}, ""}, {Crash{2}, ""},
			{Crash{3}, "error: exec: all processors crashed"},
		}},
		{name: "all processors dead, by lost members", steps: []step{
			{Lost{0}, "Pause(1)"},
			{Lost{1}, "error: exec: all processors crashed"},
		}},
		{name: "all processors dead, learned at the barrier", steps: []step{
			{Crash{0}, "Pause(0) Pause(1)"},
			{Parked{0, &PauseState{Dead: []int{0, 1}}}, ""},
			{Parked{1, &PauseState{Dead: []int{2, 3}}}, "error: exec: all processors crashed"},
		}},
		{name: "member lost while collecting results", steps: []step{
			{idle(0, 0), ""}, {idle(1, 0), "Finish(0) Finish(1)"},
			{Returned{0, part}, ""},
			{Lost{1}, "error: wire: worker 1 lost while collecting results"},
		}},
		{name: "unknown processor", steps: []step{
			{Crash{9}, "error: wire: crash report for unknown processor 9"},
		}},
		{name: "join: lost member's processors revive on the joiner", steps: []step{
			{Lost{1}, "Pause(0)"},
			{Parked{0, empty}, "Resume(0,e1)"},
			{JoinOffer{"joiner", "j"}, "Dial(joiner)"},
			{JoinDialed{"joiner", nil}, "Pause(0)"},
			{Crash{1}, ""},
			{Parked{0, &PauseState{Dead: []int{1}}}, "Resume(0,e2) Start(2,e2) Verdict(j: ok)"},
			{JoinOffer{"joiner", "j2"}, "Verdict(j2: ok)"},
			{DrainReq{1, "", "d"}, "Verdict(d: worker 1 already lost)"},
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			if w, there := l.Home(3); w != 2 || !there {
				t.Errorf("PE 3 lives on member %d (there=%v), want the joiner", w, there)
			}
			if w, there := l.Home(1); w != 2 || !there {
				t.Errorf("PE 1 crashed into the join barrier: home %d (there=%v), want revived on the joiner", w, there)
			}
			if got := l.recoveries; got != 1 {
				t.Errorf("Recoveries = %d, want 1: the join barrier is not a recovery", got)
			}
		}},
		{name: "join dial fails, or a barrier overtakes it", steps: []step{
			{Lost{1}, "Pause(0)"},
			{Parked{0, empty}, "Resume(0,e1)"},
			{JoinOffer{"joiner", "j"}, "Dial(joiner)"},
			{JoinDialed{"joiner", errors.New("boom")}, "Verdict(j: cannot dial announced worker joiner: boom)"},
			{JoinOffer{"joiner", "j2"}, "Dial(joiner)"},
			{Crash{1}, "Pause(0)"},
			{JoinDialed{"joiner", nil}, "Verdict(j2: a recovery started while the join was connecting; retry)"},
			{JoinDialed{"joiner", nil}, ""}, // no dial outstanding: ignored
		}},
		{name: "drain: checkpoint handed over, target dismissed", steps: []step{
			{DrainReq{-1, "w1", "d"}, "Pause(0) Pause(1,ckpt)"},
			{Parked{0, empty}, ""},
			{Parked{1, &PauseState{Printed: []string{"t: from w1"}, PrintedPE: []int{2}}}, "Resume(0,e1) Bye(1) Verdict(d: ok)"},
			{idle(1, 1), ""}, // late traffic from the departed
			{DrainReq{1, "", "d2"}, "Verdict(d2: worker 1 already drained)"},
			{DrainReq{7, "", "d3"}, "Verdict(d3: no such worker)"},
			{DrainReq{0, "", "d4"}, "Verdict(d4: drain would leave 0 workers; the minimum is 1)"},
			{idle(0, 1), "Finish(0)"},
			{Returned{0, &Partial{Printed: []string{"t: from w0"}, PrintedPE: []int{0}}}, "Bye(0) Done"},
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			res := last[1].(Done).Result
			if want := []string{"t: from w0", "t: from w1"}; !slices.Equal(res.Printed, want) {
				t.Errorf("printed %q, want %q: the drained member's lines must survive it", res.Printed, want)
			}
			if w, there := l.Home(2); w != 1 || there {
				t.Errorf("Home(2) = %d, %v; want the drained member, gone", w, there)
			}
			if got := l.recoveries; got != 0 {
				t.Errorf("Recoveries = %d, want 0: a drain is not a recovery", got)
			}
		}},
		{name: "a drain shrinks the machine: crashing the processors left fails the run", steps: []step{
			{DrainReq{0, "", "d"}, "Pause(0,ckpt) Pause(1)"},
			{Parked{1, empty}, ""},
			{Parked{0, &PauseState{}}, "Resume(1,e1) Bye(0) Verdict(d: ok)"},
			{Crash{2}, "Pause(1)"},
			{Crash{3}, "error: exec: all processors crashed"},
		}},
		{name: "a drain its barrier made impossible is called off", steps: []step{
			{DrainReq{1, "", "d"}, "Pause(0) Pause(1,ckpt)"},
			{Lost{0}, ""},
			{Parked{1, empty}, "Verdict(d: drain would leave 0 workers; the minimum is 1) Resume(1,e1)"},
		}},
		{name: "a revived processor is its new host's to lose", steps: []step{
			{Crash{3}, "Pause(0) Pause(1)"},
			{Parked{0, empty}, ""}, {Parked{1, &PauseState{Dead: []int{3}}}, "Resume(0,e1) Resume(1,e1)"},
			{JoinOffer{"joiner", "j"}, "Dial(joiner)"},
			{JoinDialed{"joiner", nil}, "Pause(0) Pause(1)"},
			{Parked{0, empty}, ""},
			{Parked{1, &PauseState{Dead: []int{3}}}, "Resume(0,e2) Resume(1,e2) Start(2,e2) Verdict(j: ok)"},
			// The old host still lists PE 3 among its dead at every later
			// barrier, and is then lost altogether: PE 3 lives on.
			{Crash{0}, "Pause(0) Pause(1) Pause(2)"},
			{Parked{0, &PauseState{Dead: []int{0}}}, ""}, {Parked{1, &PauseState{Dead: []int{3}}}, ""},
			{Parked{2, empty}, "Resume(0,e3) Resume(1,e3) Resume(2,e3)"},
			{Lost{1}, "Pause(0) Pause(2)"},
			{Parked{0, &PauseState{Dead: []int{0}}}, ""}, {Parked{2, empty}, "Resume(0,e4) Resume(2,e4)"},
		}, check: func(t *testing.T, l *Lifecycle, last []Effect) {
			if dead := last[0].(Resume).Plan.Dead; !slices.Equal(dead, []bool{true, false, true, false}) {
				t.Errorf("plan dead mask %v, want only PE 0 (crashed) and PE 2 (lost with its host)", dead)
			}
		}},
		{name: "reports out of season are held or dropped", steps: []step{
			{Returned{1, part}, ""}, // early: kept for the merge
			{Crash{0}, "Pause(0) Pause(1)"},
			{Returned{0, part}, "Bye(0) Bye(1) Done"},
		}},
		{name: "Mattern's single-read counterexample: sums that balance across two moments are no deadlock", steps: []step{
			// A is quiet, having sent and taken in nothing. Then B sends to
			// A, A wakes and sends to B, and B reports quiet with both
			// copies counted: read once, the sums balance.
			{Quiet{W: 0, Report: Report{Waiting: true}}, ""},
			{Quiet{W: 1, Report: Report{Sent: 1, Recv: 1, Waiting: true}}, "Probe(0) Probe(1)"},
			// A's answer is not the report it was probed on: it replaces
			// it, and the balanced sums are probed afresh.
			{Quiet{W: 0, Report: Report{Sent: 1, Recv: 1, Waiting: true}, Answer: true}, "Probe(0) Probe(1)"},
			{Quiet{W: 1, Report: Report{Sent: 1, Recv: 1, Waiting: true}, Answer: true}, ""}, // the first probe's: confirms nothing
			{Quiet{W: 0, Report: Report{Busy: true}, Answer: true}, ""},                      // A is at work again
			{Quiet{W: 1, Report: Report{Sent: 1, Recv: 1, Waiting: true}, Answer: true}, ""},
			{Quiet{W: 0, Report: Report{Sent: 2, Recv: 1}}, ""}, // idle, its last copy still on its way to B
			{Quiet{W: 1, Report: Report{Sent: 1, Recv: 2}}, "Finish(0) Finish(1)"},
		}},
		{name: "a deadlock is called when every member answers unchanged, its waits in processor order", steps: []step{
			{Quiet{W: 1, Report: Report{Sent: 1, Waiting: true}}, ""},
			{Quiet{W: 0, Report: Report{Recv: 2, Waiting: true}}, ""}, // a copy more than was sent: one report is behind
			{Quiet{W: 0, Report: Report{Recv: 1, Waiting: true}}, "Probe(0) Probe(1)"},
			{Quiet{W: 1, Report: Report{Sent: 1, Waiting: true}, Answer: true, Waits: []Wait{{3, "PE 3 waits for c->d:w from PE 1"}}}, ""},
			{Quiet{W: 0, Report: Report{Recv: 1, Waiting: true}, Answer: true, Waits: []Wait{{1, "PE 1 waits for d->c:x from PE 3"}}},
				"error: exec: run deadlocked: PE 1 waits for d->c:x from PE 3; PE 3 waits for c->d:w from PE 1"},
		}},
		{name: "reports of an era a barrier replaced are dropped, probes with it", steps: []step{
			{idle(0, 0), ""},
			{Quiet{W: 1, Report: Report{Waiting: true}}, "Probe(0) Probe(1)"},
			{Crash{3}, "Pause(0) Pause(1)"},
			{Quiet{W: 0, Report: Report{}, Answer: true}, ""}, // into the forming barrier
			{Parked{0, empty}, ""}, {Parked{1, &PauseState{Dead: []int{3}}}, "Resume(0,e1) Resume(1,e1)"},
			{Quiet{W: 1, Report: Report{Waiting: true}, Answer: true}, ""}, // era 0's
			{idle(0, 1), ""}, {idle(1, 1), "Finish(0) Finish(1)"},
		}},
		{name: "three members: one with every processor dead still takes part", peerOf: []int{0, 0, 1, 2}, steps: []step{
			{Crash{3}, "Pause(0) Pause(1) Pause(2)"},
			{Parked{2, &PauseState{Dead: []int{3}}}, ""}, {Parked{0, empty}, ""},
			{Parked{1, empty}, "Resume(0,e1) Resume(1,e1) Resume(2,e1)"},
			{idle(0, 1), ""}, {idle(1, 1), ""}, {idle(2, 1), "Finish(0) Finish(1) Finish(2)"},
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			peerOf := row.peerOf
			if peerOf == nil {
				peerOf = []int{0, 0, 1, 1}
			}
			addrs := []string{"w0", "w1", "w2"}[:slices.Max(peerOf)+1]
			l := NewLifecycle(s, flat, &Runner{Stats: &Stats{}}, addrs, peerOf, row.minWorkers)
			var last []Effect
			for i, st := range row.steps {
				var err error
				last, err = stepCounted(l, st.ev, machine.Time(i))
				got := strings.Join(show(last), " ")
				if want, isErr := strings.CutPrefix(st.want, "error: "); isErr {
					if err == nil || err.Error() != want {
						t.Fatalf("step %d %+v: error %v, want %q", i, st.ev, err, want)
					}
					return
				}
				if err != nil {
					t.Fatalf("step %d %+v: %v", i, st.ev, err)
				}
				if got != st.want {
					t.Fatalf("step %d %+v:\n got %s\nwant %s", i, st.ev, got, st.want)
				}
			}
			if row.check != nil {
				row.check(t, l, last)
			}
		})
	}
	for _, sentinel := range []error{ErrNoSuchWorker, ErrAlreadyDrained, ErrAlreadyLost} {
		wrapped := fmt.Errorf("worker 1 %w", sentinel)
		if !errors.Is(wrapped, sentinel) || !strings.HasSuffix(wrapped.Error(), sentinel.Error()) {
			t.Errorf("sentinel %q does not survive wrapping", sentinel)
		}
	}
}

// ---------------------------------------------------------------------
// The explorer: fake members that answer effects the way sessions do,
// with no goroutine, socket, sleep or clock, and a depth-first walk
// over every order in which their answers and a small set of
// disturbances can reach Step.

// fakeMember is a session reduced to what the lifecycle can observe.
type fakeMember struct {
	started, gone bool
	pes           []int                // hosted processors still alive
	slots         map[int][]sched.Slot // the era's remaining work per processor
	done          map[graph.NodeID]int // results held -> holding processor
	dead          []int                // hosted processors that crashed
	epoch         int64                // of the era installed
	idle          bool                 // reported this era
	waiting       bool                 // reported with a processor blocked for good
	blocked       int                  // that processor
	probes        []int64              // the eras of the probes still to answer
	pause         int                  // 1: Pause outstanding; 2: parked, awaiting Resume
	checkpoint    bool
	finishing     bool // Finish outstanding
	last          *PauseState
}

func (m *fakeMember) clone() *fakeMember {
	c := *m
	c.pes, c.dead, c.probes = slices.Clone(m.pes), slices.Clone(m.dead), slices.Clone(m.probes)
	c.slots, c.done = maps.Clone(m.slots), maps.Clone(m.done)
	return &c
}

// work completes up to n slots on every live processor (n < 0: all).
func (m *fakeMember) work(n int) {
	for _, pe := range m.pes {
		k := len(m.slots[pe])
		if n >= 0 && n < k {
			k = n
		}
		for _, sl := range m.slots[pe][:k] {
			if _, held := m.done[sl.Task]; !held {
				m.done[sl.Task] = pe
			}
		}
		m.slots[pe] = m.slots[pe][k:]
	}
}

// install gives the member its share of a plan (nil: the schedule).
func (m *fakeMember) install(s *sched.Schedule, plan *ResumePlan) {
	m.slots, m.epoch = map[int][]sched.Slot{}, 0
	if plan != nil {
		m.epoch = plan.Epoch
	}
	for _, pe := range m.pes {
		if plan == nil {
			m.slots[pe] = s.PESlots(pe)
			continue
		}
		for _, sl := range plan.Slots {
			if sl.PE == pe {
				m.slots[pe] = append(m.slots[pe], sl)
			}
		}
		for _, im := range plan.Imports {
			if im.PE == pe {
				m.done[im.Task] = pe
			}
		}
	}
	m.started, m.idle, m.waiting, m.pause = true, false, false, 0
}

type action struct {
	kind string
	i    int
}

func (a action) String() string { return fmt.Sprintf("%s(%d)", a.kind, a.i) }

// world is one explored state: the lifecycle under test, its fake
// fleet, and what the invariants need to remember.
type world struct {
	s       *sched.Schedule
	flat    *graph.Flat
	lc      *Lifecycle
	members []*fakeMember
	dialing bool // a Dial effect awaits its JoinDialed

	crashes, losses, drains, joins, replays, stalls int // disturbances left

	asked    []string       // requests issued
	verdicts map[string]int // answers received
	finished bool           // some member has been sent Finish
	epoch    int64          // of the latest plan seen
	result   *Result
	err      error
	trail    []string
}

func newWorld(s *sched.Schedule, flat *graph.Flat, peerOf []int) *world {
	n := slices.Max(peerOf) + 1
	w := &world{s: s, flat: flat, verdicts: map[string]int{},
		crashes: 1, losses: 1, drains: 1, joins: 1, replays: 1, stalls: 1}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("w%d", i)
		w.members = append(w.members, &fakeMember{done: map[graph.NodeID]int{}})
	}
	for pe, i := range peerOf {
		w.members[i].pes = append(w.members[i].pes, pe)
	}
	for _, m := range w.members {
		m.install(s, nil)
	}
	w.lc = NewLifecycle(s, flat, &Runner{}, addrs, peerOf, 0)
	return w
}

func (w *world) clone() *world {
	c := *w
	c.members = make([]*fakeMember, len(w.members))
	for i, m := range w.members {
		c.members[i] = m.clone()
	}
	c.asked, c.trail = slices.Clone(w.asked), slices.Clone(w.trail)
	c.verdicts = maps.Clone(w.verdicts)

	// The lifecycle: everything Step writes through must be copied.
	l := *w.lc
	l.members = make([]*member, len(w.lc.members))
	for i, m := range w.lc.members {
		cm := *m
		l.members[i] = &cm
	}
	if l.draining != nil {
		l.draining = l.members[l.draining.w]
	}
	if l.joining != nil {
		l.joining = l.members[l.joining.w]
	}
	l.peerOf, l.dead = slices.Clone(l.peerOf), slices.Clone(l.dead)
	l.saved, l.extra = slices.Clone(l.saved), slices.Clone(l.extra)
	c.lc = &l
	return &c
}

// actions lists what can happen next: first the members' own answers
// and reports (what a quiet run consists of), then the disturbances.
func (w *world) actions(disturb bool) []action {
	var acts []action
	for i, m := range w.members {
		if m.gone || !m.started {
			continue
		}
		if m.pause == 1 {
			acts = append(acts, action{"parked", i})
		}
		if m.finishing {
			acts = append(acts, action{"returned", i})
		}
		if !m.idle && m.pause != 2 && !m.finishing {
			acts = append(acts, action{"idle", i})
		}
		if len(m.probes) > 0 {
			acts = append(acts, action{"answer", i})
		}
	}
	if w.dialing {
		acts = append(acts, action{"dialed", 0})
	}
	if !disturb {
		return acts
	}
	if w.dialing {
		acts = append(acts, action{"dialfail", 0})
	}
	for i, m := range w.members {
		if m.gone {
			continue
		}
		if w.losses > 0 {
			acts = append(acts, action{"lose", i})
		}
		// A crash report may be arbitrarily late — the member may long
		// since be idle, even finishing — but a parked worker cannot die.
		if w.crashes > 0 && m.started && m.pause != 2 && len(m.pes) > 0 {
			acts = append(acts, action{"crash", m.pes[len(m.pes)-1]})
		}
		// A processor blocked on a message that is lost: the member
		// reports quiet with it waiting, and stays so until a barrier.
		if w.stalls > 0 && m.started && !m.idle && m.pause == 0 && !m.finishing && len(m.pes) > 0 {
			acts = append(acts, action{"wait", i})
		}
		// A duplicate of a barrier reply already acted on. (One arriving
		// inside the next barrier would pass for its reply; links absorb
		// replays so that it cannot.)
		if w.replays > 0 && m.last != nil && m.pause == 0 {
			acts = append(acts, action{"replay", i})
		}
	}
	if w.drains > 0 {
		acts = append(acts, action{"drain", 1})
	}
	if w.joins > 0 {
		acts = append(acts, action{"join", 0})
	}
	return acts
}

// event carries out the fake side of an action and returns what the
// lifecycle gets to see of it.
func (w *world) event(a action) Event {
	switch a.kind {
	case "parked":
		m := w.members[a.i]
		m.work(1) // the barrier caught every processor one task further on
		st := &PauseState{Done: maps.Clone(m.done), Dead: slices.Clone(m.dead)}
		for t := range m.done {
			for _, v := range w.flat.ExternalOut[t] {
				st.Held = append(st.Held, string(t)+"."+v)
			}
		}
		slices.Sort(st.Held)
		if m.checkpoint {
			st.Local = map[graph.NodeID]pits.Env{}
			for t := range m.done {
				st.Local[t] = pits.Env{}
			}
		}
		m.pause, m.last = 2, st
		return Parked{a.i, st}
	case "replay":
		w.replays--
		return Parked{a.i, w.members[a.i].last}
	case "returned":
		w.members[a.i].finishing = false
		return Returned{a.i, &Partial{}}
	case "idle":
		m := w.members[a.i]
		m.work(-1)
		m.idle = true
		return idle(a.i, m.epoch)
	case "wait":
		w.stalls--
		m := w.members[a.i]
		m.idle, m.waiting, m.blocked = true, true, m.pes[0]
		return Quiet{W: a.i, Report: Report{Epoch: m.epoch, Waiting: true}}
	case "answer":
		m := w.members[a.i]
		q := Quiet{W: a.i, Report: Report{Epoch: m.probes[0], Busy: m.probes[0] != m.epoch || !m.idle, Waiting: m.waiting}, Answer: true}
		if m.waiting {
			q.Waits = []Wait{{m.blocked, fmt.Sprintf("PE %d waits", m.blocked)}}
		}
		m.probes = m.probes[1:]
		return q
	case "crash":
		w.crashes--
		for _, m := range w.members {
			if k := slices.Index(m.pes, a.i); k >= 0 && !m.gone {
				m.pes = slices.Delete(slices.Clone(m.pes), k, k+1)
				m.dead = append(m.dead, a.i)
				maps.DeleteFunc(m.done, func(_ graph.NodeID, pe int) bool { return pe == a.i })
				delete(m.slots, a.i)
			}
		}
		return Crash{a.i}
	case "lose":
		w.losses--
		w.members[a.i].gone = true
		return Lost{a.i}
	case "drain":
		w.drains--
		return w.ask(DrainReq{Worker: a.i, Req: "drain"}, "drain")
	case "join":
		w.joins--
		return w.ask(JoinOffer{Addr: "joiner", Req: "join"}, "join")
	case "dialed", "dialfail":
		w.dialing = false
		if a.kind == "dialfail" {
			return JoinDialed{"joiner", errors.New("refused")}
		}
		return JoinDialed{Addr: "joiner"}
	}
	panic(a.kind)
}

func (w *world) ask(ev Event, req string) Event {
	w.asked = append(w.asked, req)
	return ev
}

// tolerable says whether Step may fail like this: these are the runs
// that cannot be saved, each with its one diagnosable cause. Any other
// error is the lifecycle's bug.
func tolerable(ph phase, ev Event, err error) bool {
	msg := err.Error()
	switch ev.(type) {
	case Crash:
		return msg == "exec: all processors crashed" ||
			ph == finishing && strings.Contains(msg, "crashed while the run was finishing")
	case Lost:
		return msg == "exec: all processors crashed" ||
			ph == finishing && strings.Contains(msg, "lost while collecting results")
	case Parked:
		return msg == "exec: all processors crashed" ||
			ph == running && strings.Contains(msg, "parked outside a pause")
	}
	return false
}

// do takes one action and checks every invariant it can.
func (w *world) do(t *testing.T, a action) {
	w.trail = append(w.trail, a.String())
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s\npath: %s", fmt.Sprintf(format, args...), strings.Join(w.trail, " "))
	}
	ev := w.event(a)
	ph, before := w.lc.phase, w.lc.Members()
	effects, err := stepCounted(w.lc, ev, machine.Time(len(w.trail)))
	if err != nil && strings.HasPrefix(err.Error(), "exec: run deadlocked: ") {
		// Called only on a fleet that is all quiet, somebody waiting.
		waiting := false
		for i, m := range w.members {
			if w.lc.members[i].active() && !m.idle {
				fail("deadlock called while member %d is at work", i)
			}
			waiting = waiting || w.lc.members[i].active() && m.waiting
		}
		if !waiting {
			fail("deadlock called with nobody waiting: %v", err)
		}
		w.err = err
		return
	}
	if w.lc.Members() > before {
		w.members = append(w.members, &fakeMember{done: map[graph.NodeID]int{}})
	}
	if w.lc.phase == running && (w.lc.draining != nil || w.lc.joining != nil) {
		fail("running with a fleet change still pending")
	}

	var plan *ResumePlan
	var contributed []*PauseState // the states this batch's plan was made from
	for _, ef := range effects {
		switch e := ef.(type) {
		case Pause:
			m := w.members[e.W]
			if w.finished {
				fail("Pause(%d) after Finish", e.W)
			}
			if m.gone || m.pause != 0 {
				fail("Pause(%d) to a member that is gone or already pausing", e.W)
			}
			m.pause, m.checkpoint = 1, e.Checkpoint
		case Resume:
			m := w.members[e.W]
			if m.gone || m.pause != 2 {
				fail("Resume(%d) to a member that is gone or not parked", e.W)
			}
			plan, contributed = e.Plan, append(contributed, m.last)
			m.install(w.s, e.Plan)
		case Start:
			m := w.members[e.W]
			if m.gone || m.started {
				fail("Start(%d) to a member that is gone or already running", e.W)
			}
			plan = e.Plan
			for pe, home := range w.lc.PeerOf() {
				if home == e.W && !e.Plan.Dead[pe] {
					m.pes = append(m.pes, pe)
				}
			}
			m.install(w.s, e.Plan)
		case Finish:
			m := w.members[e.W]
			if m.gone || !m.idle || m.waiting || m.pause != 0 {
				fail("Finish(%d) to a member that is gone, busy, waiting or at a barrier", e.W)
			}
			m.finishing, w.finished = true, true
		case Probe:
			m := w.members[e.W]
			if m.gone || !m.idle || m.pause != 0 {
				fail("Probe(%d) to a member that is gone, busy or at a barrier", e.W)
			}
			m.probes = append(m.probes, m.epoch)
		case Bye:
			m := w.members[e.W]
			if m.pause == 2 {
				contributed = append(contributed, m.last) // drained at this barrier
			}
			m.gone = true
		case Dial:
			w.dialing = true
		case Verdict:
			if w.verdicts[e.Req.(string)]++; w.verdicts[e.Req.(string)] > 1 {
				fail("request %q answered twice", e.Req)
			}
		case Done:
			w.result = e.Result
		}
	}
	if plan != nil {
		if plan.Epoch <= w.epoch {
			fail("epoch %d follows epoch %d", plan.Epoch, w.epoch)
		}
		w.epoch = plan.Epoch
		for _, sl := range plan.Slots {
			for _, st := range contributed {
				if _, held := st.Done[sl.Task]; held {
					fail("task %s re-planned in epoch %d although a parked member holds its result", sl.Task, plan.Epoch)
				}
			}
			if plan.Dead[sl.PE] {
				fail("task %s planned onto dead PE %d", sl.Task, sl.PE)
			}
		}
	}
	switch {
	case err != nil:
		if !tolerable(ph, ev, err) {
			fail("Step(%+v) in phase %d: %v", ev, ph, err)
		}
		w.err = err
	case w.result != nil:
		for i, m := range w.members {
			if !m.gone {
				fail("Done while member %d still expects to be spoken to", i)
			}
		}
		for _, req := range w.asked {
			// A join still dialing when the run ends is the driver's to
			// answer: it tells every unanswered requester the run is over.
			if w.verdicts[req] != 1 && !(req == "join" && w.dialing) {
				fail("Done with request %q answered %d times", req, w.verdicts[req])
			}
		}
	}
}

func (w *world) over() bool { return w.err != nil || w.result != nil }

// settle lets the fleet run on undisturbed: every such future must end
// in Done or a tolerable error. A state with nothing left to happen is
// a hang, the one outcome the lifecycle exists to rule out.
func (w *world) settle(t *testing.T) {
	for n := 0; !w.over(); n++ {
		acts := w.actions(false)
		if len(acts) == 0 || n > 200 {
			t.Fatalf("hang: nothing outstanding and the run is not over (phase %d)\npath: %s",
				w.lc.phase, strings.Join(w.trail, " "))
		}
		w.do(t, acts[0])
	}
}

func TestLifecycleExplorer(t *testing.T) {
	coverageFrom["explorer"] = true
	s, flat := lifecycleFixture(t)
	for _, tc := range []struct {
		peerOf []int
		depth  int
	}{
		{[]int{0, 0, 1, 1}, 7},
		{[]int{0, 0, 1, 2}, 5},
	} {
		paths := 0
		var walk func(w *world, depth int)
		walk = func(w *world, depth int) {
			if w.over() {
				paths++
				return
			}
			if depth == 0 {
				w.settle(t)
				paths++
				return
			}
			acts := w.actions(true)
			if len(acts) == 0 {
				t.Fatalf("hang: no action enabled\npath: %s", strings.Join(w.trail, " "))
			}
			for _, a := range acts {
				next := w.clone()
				next.do(t, a)
				walk(next, depth-1)
			}
		}
		walk(newWorld(s, flat, tc.peerOf), tc.depth)
		t.Logf("%d members: %d paths to depth %d, each settled to Done or a diagnosable error",
			slices.Max(tc.peerOf)+1, paths, tc.depth)
	}
}

// TestLifecycleCoverage runs after the table and the explorer (tests of
// one package run in source order) and checks that between them every
// event was seen in every phase.
func TestLifecycleCoverage(t *testing.T) {
	if len(coverageFrom) < 2 {
		t.Skip("needs TestLifecycleTable and TestLifecycleExplorer to have run first")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %9s %9s %9s\n", "", "running", "pausing", "finishing")
	missing := 0
	for k, name := range eventNames {
		fmt.Fprintf(&b, "%-11s %9d %9d %9d\n", name, covered[running][k], covered[pausing][k], covered[finishing][k])
		for ph := range covered {
			if covered[ph][k] == 0 {
				missing++
			}
		}
	}
	t.Logf("Step calls by phase and event:\n%s%d Probe effects", b.String(), probed)
	if missing > 0 {
		t.Errorf("%d (phase, event) pairs never reached Step", missing)
	}
	if probed == 0 {
		t.Error("no Step ever returned a Probe")
	}
}
