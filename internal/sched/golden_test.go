package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// The golden equivalence suite pins every scheduler's exact output —
// the full slot and message lists, not just the makespan — on seeded
// random graphs across the paper's topology families. The goldens in
// testdata/golden_schedules.json were recorded from the original
// (pre-optimization) scheduler implementations; the incremental EST
// cache and compiled graph view must reproduce them byte for byte.
//
// TestGoldenReplans pins Replan the same way in
// testdata/golden_replans.json, and TestGoldenMHContention pins MH on
// the networks where its link contention bites in
// testdata/golden_mh_contention.json. TestGoldenHetero pins every
// scheduler on machines whose processors differ in speed, the one case
// where a task's execution time depends on its processor, in
// testdata/golden_hetero.json. Regenerate any of them (only when
// the scheduling semantics intentionally change) with:
//
//	go test ./internal/sched -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata/ from the current code")

const (
	goldenPath       = "testdata/golden_schedules.json"
	goldenReplanPath = "testdata/golden_replans.json"
	goldenMHPath     = "testdata/golden_mh_contention.json"
	goldenHeteroPath = "testdata/golden_hetero.json"
)

// goldenEntry is one (graph, machine, scheduler) combination.
type goldenEntry struct {
	Graph    string       `json:"graph"`
	Machine  string       `json:"machine"`
	Alg      string       `json:"alg"`
	Makespan machine.Time `json:"makespan"`
	Slots    int          `json:"slots"`
	Msgs     int          `json:"msgs"`
	// SHA256 is the hash of the canonical rendering of the complete
	// slot and message lists, in schedule order.
	SHA256 string `json:"sha256"`
}

// goldenGraphs builds the seeded random graphs the suite runs on.
// Sizes are chosen so the original O(n^2·P·d) schedulers record them
// in seconds while still exercising non-trivial ready-pool dynamics.
func goldenGraphs(t testing.TB) []*graph.Graph {
	t.Helper()
	var gs []*graph.Graph
	for _, c := range []struct {
		seed   int64
		cfg    graph.LayeredConfig
		rename string
	}{
		{seed: 11, cfg: graph.LayeredConfig{Layers: 5, Width: 4, MinWork: 5, MaxWork: 60, MinWords: 1, MaxWords: 30, Density: 0.4}, rename: "g20"},
		{seed: 22, cfg: graph.LayeredConfig{Layers: 8, Width: 6, MinWork: 10, MaxWork: 100, MinWords: 1, MaxWords: 40, Density: 0.3}, rename: "g48"},
		{seed: 33, cfg: graph.LayeredConfig{Layers: 12, Width: 10, MinWork: 1, MaxWork: 120, MinWords: 0, MaxWords: 60, Density: 0.25}, rename: "g120"},
	} {
		rng := rand.New(rand.NewSource(c.seed))
		g, err := graph.LayeredRandom(rng, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		g.Name = c.rename
		gs = append(gs, g)
	}
	return gs
}

// goldenMachines builds one machine per topology family of the paper's
// Figure 2 (hypercube, mesh, star, fully-connected).
func goldenMachines(t testing.TB) []*machine.Machine {
	t.Helper()
	var ms []*machine.Machine
	mk := func(topo *machine.Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(topo.Name, topo, machine.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	mk(machine.Hypercube(3))
	mk(machine.Mesh(2, 3))
	mk(machine.Star(6))
	mk(machine.Full(8))
	return ms
}

// canonicalFingerprint renders the complete schedule deterministically
// and hashes it. Any change to any slot or message field changes the
// hash.
func canonicalFingerprint(s *Schedule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s\n", s.Algorithm)
	for _, sl := range s.Slots {
		fmt.Fprintf(&b, "slot %s pe=%d start=%d finish=%d dup=%v\n",
			sl.Task, sl.PE, int64(sl.Start), int64(sl.Finish), sl.Dup)
	}
	for _, m := range s.Msgs {
		fmt.Fprintf(&b, "msg %s %s->%s pe%d->pe%d words=%d send=%d recv=%d hops=%d\n",
			m.Var, m.From, m.To, m.FromPE, m.ToPE, m.Words, int64(m.Send), int64(m.Recv), m.Hops)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func goldenKey(g, m, alg string) string { return g + "|" + m + "|" + alg }

func TestGoldenEquivalence(t *testing.T) {
	graphs := goldenGraphs(t)
	machines := goldenMachines(t)

	var entries []goldenEntry
	for _, g := range graphs {
		for _, m := range machines {
			for _, s := range All() {
				sc, err := s.Schedule(g, m)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", s.Name(), g.Name, m.Name, err)
				}
				if err := sc.Validate(); err != nil {
					t.Fatalf("%s on %s/%s: invalid schedule: %v", s.Name(), g.Name, m.Name, err)
				}
				entries = append(entries, goldenEntry{
					Graph: g.Name, Machine: m.Name, Alg: s.Name(),
					Makespan: sc.Makespan(), Slots: len(sc.Slots), Msgs: len(sc.Msgs),
					SHA256: canonicalFingerprint(sc),
				})
			}
		}
	}

	checkGolden(t, goldenPath, entries)
}

// TestGoldenMHContention pins MH where contention lives. The golden
// machines are all shallow (diameter ≤ 3), so they rarely queue a
// message behind another; rings, a chain and a torus route over many
// shared links, and there MH's link bookkeeping and candidate pruning
// decide the schedule. The 501-task layered design is the one a
// cold prediction serves.
func TestGoldenMHContention(t *testing.T) {
	var entries []goldenEntry
	for _, g := range append(goldenGraphs(t), layeredDesign(t, 20, 25)) {
		for _, spec := range []string{"ring:16", "ring:64", "ring:128", "chain:32", "torus:4x8"} {
			sc, err := MH{}.Schedule(g, mk(t, spec, machine.DefaultParams()))
			if err != nil {
				t.Fatalf("mh on %s/%s: %v", g.Name, spec, err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("mh on %s/%s: invalid schedule: %v", g.Name, spec, err)
			}
			entries = append(entries, goldenEntry{
				Graph: g.Name, Machine: spec, Alg: "mh",
				Makespan: sc.Makespan(), Slots: len(sc.Slots), Msgs: len(sc.Msgs),
				SHA256: canonicalFingerprint(sc),
			})
		}
	}
	checkGolden(t, goldenMHPath, entries)
}

// TestMHRecordReplaysThroughCommitDeliver pins that an MH schedule's
// message list is recorded in MH's booking order: replaying its Msgs, in
// that order, through its arrival rule (Deliver: commitDeliver over a
// fresh contention state) books the links exactly as MH did (a co-located delivery books nothing, and MH
// records none), so it reproduces every Msg.Recv. Each slot then starts
// where MH started it: when its processor came free, or when its last
// input arrived, whichever is later.
func TestMHRecordReplaysThroughCommitDeliver(t *testing.T) {
	type msgKey struct {
		from, to graph.NodeID
		v        string
	}
	for _, g := range append(goldenGraphs(t), layeredDesign(t, 20, 25)) {
		for _, spec := range []string{"ring:16", "ring:64", "ring:128", "chain:32", "torus:4x8"} {
			m := mk(t, spec, machine.DefaultParams())
			sc, err := MH{}.Schedule(g, m)
			if err != nil {
				t.Fatalf("mh on %s/%s: %v", g.Name, spec, err)
			}
			deliver, err := sc.Deliver()
			if err != nil {
				t.Fatal(err)
			}
			recv := make(map[msgKey]machine.Time, len(sc.Msgs))
			for i, msg := range sc.Msgs {
				at := deliver(msg.Words, msg.Send, msg.FromPE, msg.ToPE)
				if at != msg.Recv {
					t.Fatalf("mh on %s/%s: message %d (%s->%s:%s) replays to arrive at %v, recorded %v",
						g.Name, spec, i, msg.From, msg.To, msg.Var, at, msg.Recv)
				}
				recv[msgKey{msg.From, msg.To, msg.Var}] = at
			}

			slotOf := make(map[graph.NodeID]Slot, len(sc.Slots))
			byPE := make([][]Slot, m.NumPE())
			for _, sl := range sc.Slots {
				slotOf[sl.Task] = sl
				byPE[sl.PE] = append(byPE[sl.PE], sl)
			}
			for _, slots := range byPE {
				sort.Slice(slots, func(i, j int) bool { return slots[i].Start < slots[j].Start })
				var free machine.Time
				for _, sl := range slots {
					start := free
					for _, a := range g.PredArcs(sl.Task) {
						src, ok := slotOf[a.From]
						if !ok {
							continue
						}
						at := src.Finish
						if src.PE != sl.PE {
							at = recv[msgKey{a.From, sl.Task, a.Var}]
						}
						start = max(start, at)
					}
					if start != sl.Start {
						t.Fatalf("mh on %s/%s: %s replays to start at %v on PE %d, scheduled %v",
							g.Name, spec, sl.Task, start, sl.PE, sl.Start)
					}
					free = sl.Finish
				}
			}
		}
	}
}

// TestGoldenHetero pins every scheduler on two heterogeneous-speed
// machines, where execution times come from a per-processor table.
func TestGoldenHetero(t *testing.T) {
	var entries []goldenEntry
	for _, g := range goldenGraphs(t) {
		for _, hm := range []struct {
			spec   string
			speeds []int64
		}{
			{"hypercube:3", []int64{1, 3, 2, 1, 4, 1, 2, 5}},
			{"mesh:2x3", []int64{2, 1, 1, 3, 1, 2}},
		} {
			m := mk(t, hm.spec, machine.DefaultParams())
			if err := m.SetSpeeds(hm.speeds); err != nil {
				t.Fatal(err)
			}
			for _, s := range All() {
				sc, err := s.Schedule(g, m)
				if err != nil {
					t.Fatalf("%s on %s/%s: %v", s.Name(), g.Name, hm.spec, err)
				}
				if err := sc.Validate(); err != nil {
					t.Fatalf("%s on %s/%s: invalid schedule: %v", s.Name(), g.Name, hm.spec, err)
				}
				entries = append(entries, goldenEntry{
					Graph: g.Name, Machine: hm.spec + "-hetero", Alg: s.Name(),
					Makespan: sc.Makespan(), Slots: len(sc.Slots), Msgs: len(sc.Msgs),
					SHA256: canonicalFingerprint(sc),
				})
			}
		}
	}
	checkGolden(t, goldenHeteroPath, entries)
}

// checkGolden compares entries with the golden file at path, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, path string, entries []goldenEntry) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d golden entries to %s", len(entries), path)
		return
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-golden to record): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	wantByKey := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantByKey[goldenKey(e.Graph, e.Machine, e.Alg)] = e
	}
	if len(want) != len(entries) {
		t.Errorf("golden file has %d entries, suite produced %d", len(want), len(entries))
	}
	for _, got := range entries {
		key := goldenKey(got.Graph, got.Machine, got.Alg)
		w, ok := wantByKey[key]
		if !ok {
			t.Errorf("%s: no golden recorded", key)
			continue
		}
		if got != w {
			t.Errorf("%s: diverged from golden:\n got  %+v\nwant %+v", key, got, w)
		}
	}
}

// replanDraw draws one seeded surviving state of a run on m: a live
// mask (every fifth draw leaves a single survivor) and a done set drawn
// task by task, so it is not closed under predecessors — some surviving
// results outlive the producers they were computed from.
func replanDraw(rng *rand.Rand, g *graph.Graph, m *machine.Machine, k int) ReplanState {
	n := m.NumPE()
	live := make([]bool, n)
	if k%5 != 0 {
		for pe := range live {
			live[pe] = rng.Intn(3) > 0
		}
	}
	live[rng.Intn(n)] = true
	var alive []int
	for pe, l := range live {
		if l {
			alive = append(alive, pe)
		}
	}
	done := map[graph.NodeID]int{}
	pct := rng.Intn(90)
	for _, nd := range g.Nodes() {
		if rng.Intn(100) < pct {
			done[nd.ID] = alive[rng.Intn(len(alive))]
		}
	}
	return ReplanState{Live: live, Done: done}
}

// TestGoldenReplans pins Replan's exact output — slots and messages, in
// order — on 25 seeded surviving states per golden graph and machine.
func TestGoldenReplans(t *testing.T) {
	var entries []goldenEntry
	singles, orphans := 0, 0
	for gi, g := range goldenGraphs(t) {
		for mi, m := range goldenMachines(t) {
			s, err := ETF{}.Schedule(g, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(10*gi + mi + 1)))
			for k := 0; k < 25; k++ {
				st := replanDraw(rng, g, m, k)
				alive := 0
				for _, l := range st.Live {
					if l {
						alive++
					}
				}
				if alive == 1 {
					singles++
				}
				for id := range st.Done {
					for _, a := range g.PredArcs(id) {
						if _, ok := st.Done[a.From]; !ok {
							orphans++
						}
					}
				}
				plan, err := Replan(s, st)
				if err != nil {
					t.Fatalf("%s/%s draw %d: %v", g.Name, m.Name, k, err)
				}
				var mk machine.Time
				for _, sl := range plan.Slots {
					mk = max(mk, sl.Finish)
				}
				entries = append(entries, goldenEntry{
					Graph: g.Name, Machine: m.Name, Alg: fmt.Sprintf("replan-%02d", k),
					Makespan: mk, Slots: len(plan.Slots), Msgs: len(plan.Msgs),
					SHA256: canonicalFingerprint(&Schedule{Algorithm: "replan", Slots: plan.Slots, Msgs: plan.Msgs}),
				})
			}
		}
	}
	if singles == 0 || orphans == 0 {
		t.Fatalf("corpus lacks single-survivor masks (%d) or done tasks with lost producers (%d)", singles, orphans)
	}
	checkGolden(t, goldenReplanPath, entries)
}
