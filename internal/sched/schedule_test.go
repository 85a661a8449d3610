package sched

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// mk builds a machine over the given topology spec with the given
// params, failing the test on error.
func mk(t *testing.T, spec string, p machine.Params) *machine.Machine {
	t.Helper()
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(spec, topo, p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cheapComm() machine.Params {
	return machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 1, WordTime: 0}
}

func costlyComm() machine.Params {
	return machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 5, WordTime: 1}
}

func TestScheduleMetricsHandBuilt(t *testing.T) {
	g := graph.Chain(2, 10, 4)
	m := mk(t, "full:2", costlyComm())
	s := &Schedule{
		Graph: g, Machine: m, Algorithm: "hand",
		Slots: []Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t1", PE: 1, Start: 19, Finish: 29}, // 10 + comm(4 words,1 hop)=10+5+4=19
		},
		Msgs: []Msg{{Var: "v1", From: "t0", To: "t1", FromPE: 0, ToPE: 1, Words: 4, Send: 10, Recv: 19, Hops: 1}},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	if got := s.Makespan(); got != 29 {
		t.Errorf("Makespan = %v", got)
	}
	if got := s.SerialTime(); got != 20 {
		t.Errorf("SerialTime = %v", got)
	}
	if got := s.Speedup(); got < 0.68 || got > 0.70 {
		t.Errorf("Speedup = %f", got)
	}
	if got := s.UsedPEs(); got != 2 {
		t.Errorf("UsedPEs = %d", got)
	}
	if got := s.BusyTime(0); got != 10 {
		t.Errorf("BusyTime(0) = %v", got)
	}
	msgs, words := s.CommVolume()
	if msgs != 1 || words != 4 {
		t.Errorf("CommVolume = %d, %d", msgs, words)
	}
	if u := s.Utilization(); u <= 0 || u > 1 {
		t.Errorf("Utilization = %f", u)
	}
	if str := s.String(); !strings.Contains(str, "hand") || !strings.Contains(str, "makespan") {
		t.Errorf("String = %q", str)
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	g := graph.New("g")
	g.MustAddTask("a", "", 10)
	g.MustAddTask("b", "", 10)
	m := mk(t, "full:2", cheapComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 10},
			{Task: "b", PE: 0, Start: 5, Finish: 15},
		}}
	if err := s.Validate(); err == nil {
		t.Fatal("overlapping slots accepted")
	}
}

// TestValidateReportsProcessorsOutsideTheMachine: a slot or message
// naming a processor the machine does not have is an error Validate
// returns, never an index it panics on — on a homogeneous machine and
// on one whose per-processor speeds ExecTime would index too.
func TestValidateReportsProcessorsOutsideTheMachine(t *testing.T) {
	g := graph.Chain(2, 10, 4)
	valid := func(m *machine.Machine) *Schedule {
		comm := m.CommTime(4, 0, 1)
		return &Schedule{Graph: g, Machine: m, Algorithm: "hand",
			Slots: []Slot{
				{Task: "t0", PE: 0, Start: 0, Finish: m.ExecTime(10, 0)},
				{Task: "t1", PE: 1, Start: m.ExecTime(10, 0) + comm, Finish: m.ExecTime(10, 0) + comm + m.ExecTime(10, 1)},
			},
			Msgs: []Msg{{Var: "v1", From: "t0", To: "t1", FromPE: 0, ToPE: 1, Words: 4,
				Send: m.ExecTime(10, 0), Recv: m.ExecTime(10, 0) + comm, Hops: 1}},
		}
	}
	homog := mk(t, "ring:4", costlyComm())
	hetero := mk(t, "ring:4", costlyComm())
	if err := hetero.SetSpeeds([]int64{1, 2, 1, 2}); err != nil {
		t.Fatal(err)
	}
	for kind, m := range map[string]*machine.Machine{"homogeneous": homog, "with speeds": hetero} {
		if err := valid(m).Validate(); err != nil {
			t.Fatalf("%s: valid schedule rejected: %v", kind, err)
		}
		for _, tc := range []struct {
			name   string
			mutate func(s *Schedule)
		}{
			{"slot PE 99", func(s *Schedule) { s.Slots[1].PE = 99 }},
			{"slot PE -1", func(s *Schedule) { s.Slots[0].PE = -1 }},
			{"message from PE 99", func(s *Schedule) { s.Msgs[0].FromPE = 99 }},
			{"message to PE 99", func(s *Schedule) { s.Msgs[0].ToPE = 99 }},
			{"message to PE -1", func(s *Schedule) { s.Msgs[0].ToPE = -1 }},
		} {
			s := valid(m)
			tc.mutate(s)
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "99") && !strings.Contains(err.Error(), "-1") {
				t.Errorf("%s, %s: Validate = %v, want an error naming the processor", kind, tc.name, err)
			}
		}
	}
}

func TestValidateCatchesPrecedenceViolation(t *testing.T) {
	g := graph.Chain(2, 10, 0)
	m := mk(t, "full:2", cheapComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t1", PE: 0, Start: 5, Finish: 15},
		}}
	err := s.Validate()
	if err == nil {
		t.Fatal("precedence violation accepted")
	}
}

func TestValidateCatchesMissingCommDelay(t *testing.T) {
	g := graph.Chain(2, 10, 8)
	m := mk(t, "full:2", costlyComm()) // comm for 8 words = 5+8 = 13
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t1", PE: 1, Start: 12, Finish: 22}, // too early: needs >= 23
		}}
	if err := s.Validate(); err == nil {
		t.Fatal("communication delay violation accepted")
	}
}

func TestValidateCatchesWrongDuration(t *testing.T) {
	g := graph.New("g")
	g.MustAddTask("a", "", 10)
	m := mk(t, "full:1", cheapComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{{Task: "a", PE: 0, Start: 0, Finish: 99}}}
	if err := s.Validate(); err == nil {
		t.Fatal("wrong duration accepted")
	}
}

func TestValidateCatchesMissingAndDuplicatePrimary(t *testing.T) {
	g := graph.New("g")
	g.MustAddTask("a", "", 10)
	g.MustAddTask("b", "", 10)
	m := mk(t, "full:2", cheapComm())
	missing := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{{Task: "a", PE: 0, Start: 0, Finish: 10}}}
	if err := missing.Validate(); err == nil {
		t.Error("unscheduled task accepted")
	}
	double := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "a", PE: 0, Start: 0, Finish: 10},
			{Task: "a", PE: 1, Start: 0, Finish: 10},
			{Task: "b", PE: 1, Start: 10, Finish: 20},
		}}
	if err := double.Validate(); err == nil {
		t.Error("two primary slots accepted")
	}
}

func TestValidateAcceptsDuplicates(t *testing.T) {
	g := graph.Chain(2, 10, 8)
	m := mk(t, "full:2", costlyComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t0", PE: 1, Start: 0, Finish: 10, Dup: true},
			{Task: "t1", PE: 1, Start: 10, Finish: 20}, // fed by the co-located dup
		}}
	if err := s.Validate(); err != nil {
		t.Fatalf("duplicate-based schedule rejected: %v", err)
	}
}

func TestValidateCatchesBadPEAndUnknownTask(t *testing.T) {
	g := graph.New("g")
	g.MustAddTask("a", "", 10)
	m := mk(t, "full:1", cheapComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "a", PE: 5, Start: 0, Finish: 10},
			{Task: "ghost", PE: 0, Start: 0, Finish: 1},
		}}
	err := s.Validate()
	if err == nil {
		t.Fatal("bad PE / unknown task accepted")
	}
	if !strings.Contains(err.Error(), "invalid PE") || !strings.Contains(err.Error(), "unknown task") {
		t.Errorf("error lacks detail: %v", err)
	}
}

func TestValidateCatchesLyingMessage(t *testing.T) {
	g := graph.Chain(2, 10, 8)
	m := mk(t, "full:2", costlyComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
			{Task: "t1", PE: 1, Start: 23, Finish: 33},
		},
		Msgs: []Msg{{From: "t0", To: "t1", FromPE: 0, ToPE: 1, Words: 8, Send: 10, Recv: 11}}}
	if err := s.Validate(); err == nil {
		t.Fatal("message faster than the model accepted")
	}
}

// TestPrimarySlotAndPESlots covers the per-task views on a hand-built
// schedule whose slot order no scheduler produces: a duplicate listed
// before its task's primary copy, and a task with no primary copy.
func TestPrimarySlotAndPESlots(t *testing.T) {
	g := graph.Chain(2, 10, 0)
	m := mk(t, "full:2", cheapComm())
	s := &Schedule{Graph: g, Machine: m,
		Slots: []Slot{
			{Task: "t1", PE: 0, Start: 10, Finish: 20, Dup: true},
			{Task: "t0", PE: 1, Start: 0, Finish: 10, Dup: true},
			{Task: "t0", PE: 0, Start: 0, Finish: 10},
		}}
	p, ok := s.PrimarySlot("t0")
	if !ok || p.PE != 0 || p.Dup {
		t.Errorf("PrimarySlot(t0) = %+v, %v", p, ok)
	}
	if _, ok := s.PrimarySlot("t1"); ok {
		t.Error("PrimarySlot of a task with only a duplicate copy returned ok")
	}
	if _, ok := s.PrimarySlot("nosuch"); ok {
		t.Error("PrimarySlot of unknown task returned ok")
	}
	pes := s.PESlots(0)
	if len(pes) != 2 || pes[0].Task != "t0" || pes[1].Task != "t1" {
		t.Errorf("PESlots(0) = %v", pes)
	}
	if got := s.SlotsFor("t0"); len(got) != 2 || got[0] != s.Slots[1] || got[1] != s.Slots[2] {
		t.Errorf("SlotsFor(t0) = %v, want both copies in Slots order", got)
	}
	if got := s.SlotsFor("t1"); len(got) != 1 || got[0] != s.Slots[0] {
		t.Errorf("SlotsFor(t1) = %v, want its one copy", got)
	}
	if got := s.SlotsFor("nosuch"); got != nil {
		t.Errorf("SlotsFor(nosuch) = %v, want nil", got)
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "hypercube:2", costlyComm())
	orig, err := DSH{}.Schedule(g, m) // includes duplicates sometimes
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Schedule
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algorithm != orig.Algorithm || back.Makespan() != orig.Makespan() {
		t.Errorf("round trip changed schedule: %v vs %v", back.Makespan(), orig.Makespan())
	}
	if len(back.Slots) != len(orig.Slots) || len(back.Msgs) != len(orig.Msgs) {
		t.Errorf("slots/msgs lost: %d/%d vs %d/%d",
			len(back.Slots), len(back.Msgs), len(orig.Slots), len(orig.Msgs))
	}
	if err := back.Validate(); err != nil {
		t.Errorf("loaded schedule invalid: %v", err)
	}
}

func TestScheduleJSONRejectsTampering(t *testing.T) {
	g := graph.Chain(2, 10, 4)
	m := mk(t, "full:2", costlyComm())
	orig, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	// Shift a slot to violate precedence.
	tampered := strings.Replace(string(data), `"start_us":0`, `"start_us":999`, 1)
	var back Schedule
	if err := json.Unmarshal([]byte(tampered), &back); err == nil {
		t.Error("tampered schedule accepted")
	}
	var empty Schedule
	if err := json.Unmarshal([]byte(`{"algorithm":"x"}`), &empty); err == nil {
		t.Error("schedule without graph accepted")
	}
}
