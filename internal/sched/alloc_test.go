package sched

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// The arena must keep steady-state scheduling allocation-flat.

// bytesPerRun measures the exact heap bytes one Schedule call allocates
// in steady state (compiled view cached, arena pooled), averaged over
// runs. TotalAlloc is a monotonic counter, so the measure is exact and
// GC-timing-independent.
func bytesPerRun(t *testing.T, s Scheduler, g *graph.Graph, m *machine.Machine) float64 {
	t.Helper()
	const runs = 5
	if _, err := s.Schedule(g, m); err != nil { // warm compile cache + arena pool
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := s.Schedule(g, m); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestSchedulerBytesLinear is the regression test for the pre-arena
// bytes/op superlinearity: ETF and HLFET rebuilt dense
// per-run state, so doubling the graph more than doubled bytes/op.
// With the arena the per-run allocation is the escaping schedule
// product plus O(1) bookkeeping, so bytes/op must grow no faster than
// the linear model tasks×PEs + arcs (slots and messages are the
// product; everything else is pooled).
func TestSchedulerBytesLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	topo, err := machine.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	mkGraph := func(layers, width int) *graph.Graph {
		rng := rand.New(rand.NewSource(7))
		g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
			Layers: layers, Width: width,
			MinWork: 10, MaxWork: 100, MinWords: 1, MaxWords: 40, Density: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small := mkGraph(16, 12)
	big := mkGraph(32, 24) // 4× the tasks, ~8× the arcs
	model := func(g *graph.Graph) float64 {
		return float64(g.Len()*m.NumPE() + g.NumArcs())
	}
	modelRatio := model(big) / model(small)
	for _, s := range []Scheduler{ETF{}, HLFET{}, BSP{}} {
		sb := bytesPerRun(t, s, small, m)
		bb := bytesPerRun(t, s, big, m)
		ratio := bb / sb
		t.Logf("%s: %.0f B/op small, %.0f B/op big, ratio %.2f (model %.2f)", s.Name(), sb, bb, ratio, modelRatio)
		if ratio > 1.8*modelRatio {
			t.Errorf("%s: bytes/op grew %.2f× for a %.2f× larger tasks×PEs+arcs model — superlinear", s.Name(), ratio, modelRatio)
		}
	}
}

// TestSchedulerAllocsFlat pins the steady-state allocation count:
// after the compiled view is cached, a schedule run may allocate the
// escaping product and bounded bookkeeping, not O(steps) garbage
// (the pre-arena core made 24k allocations per MH run from per-step
// sorting).
func TestSchedulerAllocsFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	topo, err := machine.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: 50, Width: 40,
		MinWork: 10, MaxWork: 100, MinWords: 1, MaxWords: 40, Density: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{MH{}, ETF{}, HLFET{}, BSP{}} {
		if _, err := s.Schedule(g, m); err != nil { // warm caches
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := s.Schedule(g, m); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs/op at 2000 tasks", s.Name(), allocs)
		if allocs > 500 {
			t.Errorf("%s: %.0f allocs per schedule of a 2000-task graph — per-step garbage is back", s.Name(), allocs)
		}
	}
}
