package sched_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/conform"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/project"
	"repro/internal/sched"
)

// The schedule-quality table scores every heuristic of sched.All() by
// the makespan exec.Simulate replays, per topology family, over a fixed
// corpus: the conformance generator's designs for seeds 1–150, the
// built-in projects on their own machines, and 20 comm-heavy layered
// graphs of 25 tasks on one machine of each of five families. Each cell
// is the mean ratio of a heuristic's makespan to the case's LowerBound,
// to its SerialTime, to the best makespan of the roster, and — on cases
// of at most optimalMax tasks — to sched.Optimal's. The table is committed in
// testdata/quality.json with a tolerance per cell: a cell that worsens
// past it fails, a decision that improves one only says so. Regenerate
// it (when a scheduling decision changes on purpose) with:
//
//	go test ./internal/sched -run TestScheduleQuality -update-quality

var updateQuality = flag.Bool("update-quality", false, "rewrite testdata/quality.json from the current schedulers")

const qualityPath = "testdata/quality.json"

// optimalMax is the largest case sched.Optimal scores. Its search is
// exponential in ways the task count alone does not predict: on this
// corpus it takes up to 0.13 s on the cases of at most 6 tasks, but 15 s
// on one of 7 tasks on 8 processors and 44 s on one of 10 on 4.
const optimalMax = 6

// qualityCase is one design on one machine.
type qualityCase struct {
	name string
	g    *graph.Graph
	m    *machine.Machine
}

// family is the topology kind of a machine: "hypercube" for
// hypercube:3.
func family(m *machine.Machine) string {
	kind, _, _ := strings.Cut(m.Topo.Spec(), ":")
	if kind == "" {
		return "custom"
	}
	return kind
}

func qualityCorpus(t *testing.T) []qualityCase {
	t.Helper()
	var cs []qualityCase
	for seed := int64(1); seed <= 150; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := c.Design.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if err := conform.Calibrate(flat, c.Inputs); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, qualityCase{fmt.Sprintf("conform-%d", seed), flat.Graph, c.Machine})
	}
	for _, name := range project.BuiltinNames() {
		p, err := project.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := p.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, qualityCase{name, flat.Graph, p.Machine})
	}
	// Comm-heavy: an arc carries 20–80 words against 5–40 units of work.
	var machines []*machine.Machine
	for _, spec := range []string{"hypercube:3", "mesh:2x3", "star:6", "full:8", "ring:6"} {
		topo, err := machine.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.New(spec, topo, machine.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		machines = append(machines, m)
	}
	for seed := int64(1); seed <= 20; seed++ {
		g, err := graph.LayeredRandom(rand.New(rand.NewSource(seed)), graph.LayeredConfig{
			Layers: 5, Width: 5, MinWork: 5, MaxWork: 40, MinWords: 20, MaxWords: 80, Density: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			cs = append(cs, qualityCase{fmt.Sprintf("layered-%d@%s", seed, m.Name), g, m})
		}
	}
	return cs
}

// qualityCell is one heuristic × topology family row of the table.
type qualityCell struct {
	Heuristic string `json:"heuristic"`
	Family    string `json:"family"`
	Cases     int    `json:"cases"`
	// BestIn counts the cases where the heuristic's makespan is the
	// roster's best (ties count for each).
	BestIn       int     `json:"best_in"`
	VsLowerBound float64 `json:"vs_lower_bound"`
	VsSerial     float64 `json:"vs_serial"`
	VsBest       float64 `json:"vs_best"`
	OptimalCases int     `json:"optimal_cases"`
	VsOptimal    float64 `json:"vs_optimal,omitempty"`
	// Tolerance is how far, as a fraction of the recorded value, any
	// mean ratio of the cell may grow before the test fails.
	Tolerance float64 `json:"tolerance"`
}

// qualityTable scores the corpus.
func qualityTable(t *testing.T) []qualityCell {
	t.Helper()
	roster := sched.All()
	cells := map[string]*qualityCell{}
	sums := map[string]*[4]float64{} // per cell: lower bound, serial, best, optimal ratio sums
	for _, c := range qualityCorpus(t) {
		lb, err := sched.LowerBound(c.g, c.m)
		if err != nil {
			t.Fatal(err)
		}
		spans := make([]float64, len(roster))
		var serial machine.Time
		best := math.Inf(1)
		for i, s := range roster {
			sc, err := s.Schedule(c.g, c.m)
			if err != nil {
				t.Fatalf("%s: %s: %v", c.name, s.Name(), err)
			}
			tr, err := exec.Simulate(sc)
			if err != nil {
				t.Fatalf("%s: %s: simulate: %v", c.name, s.Name(), err)
			}
			spans[i] = float64(tr.Makespan())
			serial = sc.SerialTime()
			best = min(best, spans[i])
		}
		var opt float64
		if len(c.g.Tasks()) <= optimalMax {
			sc, err := sched.Optimal{}.Schedule(c.g, c.m)
			if err != nil {
				t.Fatalf("%s: optimal: %v", c.name, err)
			}
			tr, err := exec.Simulate(sc)
			if err != nil {
				t.Fatalf("%s: optimal: simulate: %v", c.name, err)
			}
			opt = float64(tr.Makespan())
		}
		fam := family(c.m)
		for i, s := range roster {
			key := s.Name() + "|" + fam
			cell := cells[key]
			if cell == nil {
				cell = &qualityCell{Heuristic: s.Name(), Family: fam}
				cells[key], sums[key] = cell, &[4]float64{}
			}
			cell.Cases++
			if spans[i] == best {
				cell.BestIn++
			}
			sum := sums[key]
			sum[0] += spans[i] / float64(max(lb, 1))
			sum[1] += spans[i] / float64(max(serial, 1))
			sum[2] += spans[i] / max(best, 1)
			if opt > 0 {
				cell.OptimalCases++
				sum[3] += spans[i] / opt
			}
		}
	}
	var out []qualityCell
	for key, cell := range cells {
		sum := sums[key]
		n := float64(cell.Cases)
		cell.VsLowerBound, cell.VsSerial, cell.VsBest = round4(sum[0]/n), round4(sum[1]/n), round4(sum[2]/n)
		if cell.OptimalCases > 0 {
			cell.VsOptimal = round4(sum[3] / float64(cell.OptimalCases))
		}
		cell.Tolerance = 0.01
		out = append(out, *cell)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Heuristic < out[j].Heuristic
	})
	return out
}

func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

// TestScheduleQuality recomputes the table and holds every cell to the
// committed one.
func TestScheduleQuality(t *testing.T) {
	got := qualityTable(t)
	if *updateQuality {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qualityPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatalf("%v (record the table with -update-quality)", err)
	}
	var want []qualityCell
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	byKey := map[string]qualityCell{}
	for _, c := range got {
		byKey[c.Heuristic+"|"+c.Family] = c
	}
	if len(got) != len(want) {
		t.Errorf("the table has %d cells, the committed one %d", len(got), len(want))
	}
	for _, w := range want {
		g, ok := byKey[w.Heuristic+"|"+w.Family]
		switch {
		case !ok:
			t.Errorf("%s on %s: cell missing", w.Heuristic, w.Family)
			continue
		case g.Cases != w.Cases || g.OptimalCases != w.OptimalCases:
			t.Errorf("%s on %s: %d cases (%d optimal), the table was recorded on %d (%d): the corpus changed",
				w.Heuristic, w.Family, g.Cases, g.OptimalCases, w.Cases, w.OptimalCases)
			continue
		}
		for _, r := range []struct {
			name      string
			got, want float64
		}{
			{"÷ lower bound", g.VsLowerBound, w.VsLowerBound},
			{"÷ serial", g.VsSerial, w.VsSerial},
			{"÷ best", g.VsBest, w.VsBest},
			{"÷ optimal", g.VsOptimal, w.VsOptimal},
		} {
			switch {
			case r.got > r.want*(1+w.Tolerance):
				t.Errorf("%s on %s: makespan %s worsened %.4f → %.4f, past the cell's tolerance %.0f %%",
					w.Heuristic, w.Family, r.name, r.want, r.got, 100*w.Tolerance)
			case r.got < r.want*(1-w.Tolerance):
				t.Logf("%s on %s: makespan %s improved %.4f → %.4f; record it with -update-quality",
					w.Heuristic, w.Family, r.name, r.want, r.got)
			}
		}
	}
}
