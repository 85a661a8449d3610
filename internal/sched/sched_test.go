package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/machine"
)

func TestSerialMatchesSerialTime(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "hypercube:3", costlyComm())
	s, err := Serial{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != s.SerialTime() {
		t.Errorf("serial makespan %v != serial time %v", s.Makespan(), s.SerialTime())
	}
	if s.UsedPEs() != 1 {
		t.Errorf("serial used %d PEs", s.UsedPEs())
	}
	if msgs, _ := s.CommVolume(); msgs != 0 {
		t.Errorf("serial schedule has %d messages", msgs)
	}
}

func TestETFDiamondExactTimesCheapComm(t *testing.T) {
	g := graph.Diamond(10, 10)
	m := mk(t, "full:2", cheapComm()) // comm = 1us flat
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// a:[0,10]PE0; b:[10,20]PE0; c:[11,21]PE1; d on PE1 at max(21, 20+1)=21.
	if s.Makespan() != 31 {
		t.Errorf("makespan = %v, want 31us", s.Makespan())
	}
	if s.UsedPEs() != 2 {
		t.Errorf("UsedPEs = %d", s.UsedPEs())
	}
}

func TestETFDiamondCostlyCommStaysSerial(t *testing.T) {
	g := graph.Diamond(10, 10)
	m := mk(t, "full:2", costlyComm()) // comm = 15us > work
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Makespan() != 40 || s.UsedPEs() != 1 {
		t.Errorf("makespan = %v on %d PEs; want all-serial 40us on 1 PE", s.Makespan(), s.UsedPEs())
	}
}

func TestHLFETForkJoinSpreadsWork(t *testing.T) {
	g := graph.ForkJoin(4, 20, 1)
	m := mk(t, "full:4", cheapComm())
	s, err := HLFET{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Serial = 6 tasks * 20 = 120; parallel should be well under.
	if s.Makespan() >= 120 {
		t.Errorf("HLFET failed to parallelise: %v", s.Makespan())
	}
	if s.UsedPEs() < 3 {
		t.Errorf("HLFET used only %d PEs", s.UsedPEs())
	}
}

func TestSchedulersOnSinglePEMatchSerial(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:1", costlyComm())
	want, err := Serial{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range All() {
		got, err := s.Schedule(g, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if got.Makespan() != want.Makespan() {
			t.Errorf("%s on 1 PE: makespan %v != serial %v", s.Name(), got.Makespan(), want.Makespan())
		}
	}
}

func TestPackChainUsesOneProcessor(t *testing.T) {
	g := graph.Chain(6, 10, 50)
	m := mk(t, "full:4", costlyComm())
	s, err := Pack{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.UsedPEs() != 1 {
		t.Errorf("pack spread a pure chain across %d PEs", s.UsedPEs())
	}
	if msgs, _ := s.CommVolume(); msgs != 0 {
		t.Errorf("pack chain has %d messages", msgs)
	}
}

func TestPackBalancesIndependentTasks(t *testing.T) {
	g := graph.New("indep")
	for _, id := range []graph.NodeID{"a", "b", "c", "d"} {
		g.MustAddTask(id, "", 10)
	}
	m := mk(t, "full:4", costlyComm())
	s, err := Pack{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.UsedPEs() != 4 {
		t.Errorf("pack used %d PEs for 4 independent tasks", s.UsedPEs())
	}
	if s.Makespan() != 10 {
		t.Errorf("makespan = %v, want 10us", s.Makespan())
	}
}

func TestDSHDuplicatesToBeatCommunication(t *testing.T) {
	// src feeds two heavy consumers with very expensive messages. With
	// 2 PEs, duplicating src on the second PE beats shipping the data.
	g := graph.New("dup")
	g.MustAddTask("src", "", 5)
	g.MustAddTask("c1", "", 50)
	g.MustAddTask("c2", "", 50)
	g.MustConnect("src", "c1", "d", 100)
	g.MustConnect("src", "c2", "d", 100)
	m := mk(t, "full:2", costlyComm()) // comm = 5+100 = 105us vs dup cost 5us

	dsh, err := DSH{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsh.Validate(); err != nil {
		t.Fatal(err)
	}
	hlfet, err := HLFET{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if dsh.Makespan() > hlfet.Makespan() {
		t.Errorf("DSH (%v) worse than HLFET (%v)", dsh.Makespan(), hlfet.Makespan())
	}
	// DSH should finish in 55us: c1 follows src on PE0 while c2 runs
	// after a duplicated src on PE1 — both consumers fully overlap.
	if dsh.Makespan() != 55 {
		t.Errorf("DSH makespan = %v, want 55us", dsh.Makespan())
	}
	// And it must actually contain a duplicate slot.
	foundDup := false
	for _, sl := range dsh.Slots {
		if sl.Dup {
			foundDup = true
		}
	}
	if !foundDup {
		t.Error("DSH produced no duplicate slots on a duplication-friendly graph")
	}
}

func TestMHRespectsTopologyDistance(t *testing.T) {
	// The same design on a star (2 hops between satellites) should
	// never beat a fully-connected machine of equal size under MH.
	g := graph.ForkJoin(6, 30, 20)
	full := mk(t, "full:8", costlyComm())
	star := mk(t, "star:8", costlyComm())
	sFull, err := MH{}.Schedule(g, full)
	if err != nil {
		t.Fatal(err)
	}
	sStar, err := MH{}.Schedule(g, star)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Schedule{sFull, sStar} {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if sFull.Makespan() > sStar.Makespan() {
		t.Errorf("MH: full (%v) worse than star (%v)", sFull.Makespan(), sStar.Makespan())
	}
}

func TestMHLinkContentionSerialisesMessages(t *testing.T) {
	m := mk(t, "chain:3", machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 2, WordTime: 1})
	ar := getArena()
	defer ar.release()
	net, err := newMHNet(m, ar)
	if err != nil {
		t.Fatal(err)
	}
	// Two 10-word messages from PE0 to PE2, both ready at t=0.
	at1 := net.commitDeliver(10, 0, 0, 2)
	at2 := net.commitDeliver(10, 0, 0, 2)
	// First: startup 2, hop0 [2,12], hop1 [12,22] -> 22.
	if at1 != 22 {
		t.Errorf("first arrival = %v, want 22us", at1)
	}
	// Second waits for link 0->1 until 12: hop0 [12,22], hop1 [22,32].
	if at2 != 32 {
		t.Errorf("second arrival = %v, want 32us", at2)
	}
	// Co-located delivery is free and books nothing.
	if at := net.commitDeliver(10, 7, 1, 1); at != 7 {
		t.Errorf("co-located delivery = %v, want 7us", at)
	}
}

func TestMHContentionVersusETFOnStar(t *testing.T) {
	// Wide fan-in through a star hub: MH pays serialised hub links, so
	// its (honest) makespan should be >= ETF's optimistic estimate.
	g := graph.ForkJoin(8, 10, 60)
	star := mk(t, "star:9", costlyComm())
	etf, err := ETF{}.Schedule(g, star)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := MH{}.Schedule(g, star)
	if err != nil {
		t.Fatal(err)
	}
	if err := etf.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := mh.Validate(); err != nil {
		t.Fatal(err)
	}
	if mh.Makespan() < etf.Makespan() {
		// MH models strictly more delay sources than ETF, but its
		// placements may differ; allow equality/crossing only if both
		// are sane. Flag clearly impossible outcome: better than the
		// contention-free critical path.
		_, cp, err := g.CriticalPath(1)
		if err != nil {
			t.Fatal(err)
		}
		if int64(mh.Makespan()) < cp {
			t.Errorf("MH makespan %v below critical path %d", mh.Makespan(), cp)
		}
	}
}

func TestByNameAndAll(t *testing.T) {
	if len(All()) != 8 {
		t.Errorf("All() has %d schedulers", len(All()))
	}
	for _, want := range []string{"serial", "hlfet", "etf", "ish", "mh", "dsh", "pack", "bsp"} {
		s, err := ByName(want)
		if err != nil {
			t.Errorf("ByName(%s): %v", want, err)
			continue
		}
		if s.Name() != want {
			t.Errorf("ByName(%s).Name() = %s", want, s.Name())
		}
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestSpeedupCurveShape(t *testing.T) {
	g := graph.GE(6, 10, 20, 2)
	params := cheapComm()
	var machines []*machine.Machine
	for _, dim := range []int{0, 1, 2, 3} {
		topo, err := machine.Hypercube(dim)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(topo.Name, topo, params)
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	pts, err := SpeedupCurve(MH{}, g, machines)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].PEs != 1 || pts[0].Speedup < 0.99 || pts[0].Speedup > 1.01 {
		t.Errorf("1-PE point should have speedup 1: %+v", pts[0])
	}
	// With cheap communication more processors should help this graph.
	if !(pts[2].Speedup > pts[0].Speedup) {
		t.Errorf("4 PEs not faster than 1: %+v", pts)
	}
	for _, p := range pts {
		if p.Speedup <= 0 || p.Makespan <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}
}

func TestCompareRunsEveryScheduler(t *testing.T) {
	g := graph.Diamond(10, 5)
	m := mk(t, "hypercube:2", costlyComm())
	res, err := Compare(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(All()) {
		t.Fatalf("Compare returned %d schedules", len(res))
	}
	for name, s := range res {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSchedulersRejectNonFlatGraphs(t *testing.T) {
	g := graph.New("g")
	g.MustAddTask("a", "", 1)
	g.MustAddStorage("s", "cell")
	m := mk(t, "full:2", cheapComm())
	for _, s := range All() {
		if _, err := s.Schedule(g, m); err == nil {
			t.Errorf("%s accepted a non-flat graph", s.Name())
		}
	}
	for _, s := range All() {
		if _, err := s.Schedule(nil, m); err == nil {
			t.Errorf("%s accepted nil graph", s.Name())
		}
	}
}

// The central property: every scheduler, on every topology family, for
// random graphs, produces a schedule that passes full validation and
// respects trivial lower bounds.
func TestAllSchedulersProduceValidSchedules(t *testing.T) {
	specs := []string{"full:4", "hypercube:3", "mesh:2x3", "star:5", "ring:5", "tree:2x3", "chain:4", "torus:2x3"}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
			Layers: 2 + rng.Intn(4), Width: 1 + rng.Intn(4),
			MinWork: 1, MaxWork: 40, MinWords: 0, MaxWords: 30, Density: 0.4,
		})
		if err != nil {
			t.Logf("gen: %v", err)
			return false
		}
		m := mk(t, specs[int(pick)%len(specs)], costlyComm())
		for _, s := range All() {
			sc, err := s.Schedule(g, m)
			if err != nil {
				t.Logf("%s: %v", s.Name(), err)
				return false
			}
			if err := sc.Validate(); err != nil {
				t.Logf("%s invalid on %s (seed %d): %v", s.Name(), m.Name, seed, err)
				return false
			}
			// Lower bound: total work cannot be compressed below
			// totalWork/(speed*P) even with zero communication.
			lower := (g.TotalWork() + int64(m.NumPE())*m.Params.ProcSpeed - 1) / (int64(m.NumPE()) * m.Params.ProcSpeed)
			if int64(sc.Makespan()) < lower {
				t.Logf("%s: makespan %v below work lower bound %d", s.Name(), sc.Makespan(), lower)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Schedules must be deterministic: scheduling twice yields identical
// slot lists.
func TestSchedulersAreDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: 4, Width: 4, MinWork: 1, MaxWork: 30, MinWords: 0, MaxWords: 20, Density: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := mk(t, "hypercube:3", costlyComm())
	for _, s := range All() {
		a, err := s.Schedule(g, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		b, err := s.Schedule(g, m)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if len(a.Slots) != len(b.Slots) {
			t.Errorf("%s: %d vs %d slots", s.Name(), len(a.Slots), len(b.Slots))
			continue
		}
		for i := range a.Slots {
			if a.Slots[i] != b.Slots[i] {
				t.Errorf("%s: slot %d differs: %+v vs %+v", s.Name(), i, a.Slots[i], b.Slots[i])
				break
			}
		}
	}
}

func TestHeterogeneousMachineFavoursFastPE(t *testing.T) {
	g := graph.New("one")
	g.MustAddTask("a", "", 100)
	topo, _ := machine.Full(2)
	m, err := machine.New("hetero", topo, machine.Params{ProcSpeed: 1, TaskStartup: 0, MsgStartup: 1, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetSpeeds([]int64{1, 10}); err != nil {
		t.Fatal(err)
	}
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	sl, ok := s.PrimarySlot("a")
	if !ok || sl.PE != 1 {
		t.Errorf("task not on fast PE: %+v", sl)
	}
	if s.Makespan() != 10 {
		t.Errorf("makespan = %v, want 10us", s.Makespan())
	}
}
