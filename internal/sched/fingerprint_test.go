package sched

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// fpDesign builds a small diamond design with real routines. The work
// and words arguments perturb one execution weight and one
// communication weight so tests can produce same-shape graphs that
// must not share a fingerprint.
func fpDesign(t *testing.T, work, words int64) *graph.Flat {
	t.Helper()
	g := graph.New("fp")
	g.MustAddStorage("IN", "x")
	a := g.MustAddTask("a", "a", work)
	a.Routine = "u = x + 1"
	b := g.MustAddTask("b", "b", 10)
	b.Routine = "v = u * 2"
	c := g.MustAddTask("c", "c", 10)
	c.Routine = "w = u + 3"
	d := g.MustAddTask("d", "d", 10)
	d.Routine = "out = v + w"
	g.MustConnect("IN", "a", "x", 1)
	g.MustConnect("a", "b", "u", words)
	g.MustConnect("a", "c", "u", 1)
	g.MustConnect("b", "d", "v", 1)
	g.MustConnect("c", "d", "w", 1)
	g.MustAddStorage("OUT", "out")
	g.MustConnect("d", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat
}

func fpMachine(t *testing.T, spec string, params machine.Params) *machine.Machine {
	t.Helper()
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(spec, topo, params)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestFingerprintStable(t *testing.T) {
	params := machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
	a := Fingerprint(fpDesign(t, 10, 1), fpMachine(t, "hypercube:2", params), "etf")
	b := Fingerprint(fpDesign(t, 10, 1), fpMachine(t, "hypercube:2", params), "etf")
	if a != b {
		t.Fatalf("same design, machine and algorithm fingerprinted differently:\n%s\n%s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint is not a sha256 hex string: %q", a)
	}
}

// TestFingerprintWeightSensitivity pins the cache-collision contract:
// graphs of identical shape but different execution or communication
// weights schedule differently and must produce different keys.
func TestFingerprintWeightSensitivity(t *testing.T) {
	params := machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
	m := func() *machine.Machine { return fpMachine(t, "hypercube:2", params) }
	base := Fingerprint(fpDesign(t, 10, 1), m(), "etf")

	if got := Fingerprint(fpDesign(t, 11, 1), m(), "etf"); got == base {
		t.Error("changing a task's execution weight did not change the fingerprint")
	}
	if got := Fingerprint(fpDesign(t, 10, 9), m(), "etf"); got == base {
		t.Error("changing an arc's word count did not change the fingerprint")
	}
	if got := Fingerprint(fpDesign(t, 10, 1), m(), "mh"); got == base {
		t.Error("changing the algorithm did not change the fingerprint")
	}
}

func TestFingerprintMachineSensitivity(t *testing.T) {
	flat := fpDesign(t, 10, 1)
	params := machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
	base := Fingerprint(flat, fpMachine(t, "hypercube:2", params), "etf")

	if got := Fingerprint(flat, fpMachine(t, "hypercube:3", params), "etf"); got == base {
		t.Error("changing the machine size did not change the fingerprint")
	}
	if got := Fingerprint(flat, fpMachine(t, "star:4", params), "etf"); got == base {
		t.Error("changing the topology wiring did not change the fingerprint")
	}
	slow := params
	slow.MsgStartup = 50
	if got := Fingerprint(flat, fpMachine(t, "hypercube:2", slow), "etf"); got == base {
		t.Error("changing a machine characteristic did not change the fingerprint")
	}
}

// TestFingerprintNameInsensitivity: display-only names do not reach the
// key — the same wiring under a different label is the same machine.
func TestFingerprintNameInsensitivity(t *testing.T) {
	flat := fpDesign(t, 10, 1)
	params := machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
	topo, err := machine.ParseTopology("hypercube:2")
	if err != nil {
		t.Fatal(err)
	}
	m1, err := machine.New("production-cube", topo, params)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := machine.New("staging-cube", topo, params)
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(flat, m1, "etf") != Fingerprint(flat, m2, "etf") {
		t.Error("machine display name leaked into the fingerprint")
	}
}

// TestFingerprintMatchesScheduleEquality is the end-to-end guarantee:
// equal fingerprints really do mean byte-identical schedules.
func TestFingerprintMatchesScheduleEquality(t *testing.T) {
	params := machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
	for _, alg := range []string{"etf", "mh"} {
		flatA, flatB := fpDesign(t, 10, 1), fpDesign(t, 10, 1)
		mA, mB := fpMachine(t, "hypercube:2", params), fpMachine(t, "hypercube:2", params)
		if Fingerprint(flatA, mA, alg) != Fingerprint(flatB, mB, alg) {
			t.Fatalf("%s: equal submissions got different fingerprints", alg)
		}
		s, err := ByName(alg)
		if err != nil {
			t.Fatal(err)
		}
		scA, err := s.Schedule(flatA.Graph, mA)
		if err != nil {
			t.Fatal(err)
		}
		scB, err := s.Schedule(flatB.Graph, mB)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%v%v", scA.Slots, scA.Msgs) != fmt.Sprintf("%v%v", scB.Slots, scB.Msgs) {
			t.Errorf("%s: equal fingerprints produced different schedules", alg)
		}
	}
}
