package sched

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/machine"
)

// All returns one instance of every polynomial-time scheduler, in a
// fixed order suitable for comparison tables: baseline first, then the
// PPSE heuristics in increasing sophistication, then the superstep
// scheduler. The exponential Optimal search is deliberately excluded;
// reach it with ByName.
func All() []Scheduler {
	return []Scheduler{Serial{}, HLFET{}, ETF{}, ISH{}, MH{}, DSH{}, Pack{}, BSP{}}
}

// WithWorkers returns s unchanged. Schedule construction is serial
// (docs/SCHEDULING.md, "Why the scan is serial"); the function is kept,
// as a declared no-op, only because bench/layers.go:193 calls it, and
// goes with ROADMAP 3(d) once that call does.
func WithWorkers(s Scheduler, _ int) Scheduler {
	return s
}

// ByName returns the scheduler with the given Name (including
// "optimal", which All omits), or an error listing the known names.
func ByName(name string) (Scheduler, error) {
	for _, s := range All() {
		if s.Name() == name {
			return s, nil
		}
	}
	if name == (Optimal{}).Name() {
		return Optimal{}, nil
	}
	names := []string{(Optimal{}).Name()}
	for _, s := range All() {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return nil, fmt.Errorf("sched: unknown scheduler %q (have %v)", name, names)
}

// SpeedupPoint is one point of a speedup-prediction curve (the paper's
// Figure 3 right-hand chart): the predicted speedup of a design on a
// machine of a given size.
type SpeedupPoint struct {
	PEs      int
	Makespan machine.Time
	Speedup  float64
}

// SpeedupCurve schedules the design on each machine and reports the
// predicted speedup for each, exactly what Banger displays when it maps
// a PITL design onto 2, 4 and 8 hypercube processors. The machine sizes
// are independent, so they are scheduled concurrently; the returned
// points keep the order of machines.
func SpeedupCurve(s Scheduler, g *graph.Graph, machines []*machine.Machine) ([]SpeedupPoint, error) {
	pts := make([]SpeedupPoint, len(machines))
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for i, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("speedup curve: nil machine at index %d", i)
		}
		wg.Add(1)
		go func(i int, m *machine.Machine) {
			defer wg.Done()
			sc, err := s.Schedule(g, m)
			if err != nil {
				errs[i] = fmt.Errorf("speedup curve on %s: %w", m.Name, err)
				return
			}
			pts[i] = SpeedupPoint{PEs: m.NumPE(), Makespan: sc.Makespan(), Speedup: sc.Speedup()}
		}(i, m)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return pts, nil
}

// Compare schedules the design with every scheduler on the machine,
// one goroutine per scheduler, and returns the schedules keyed by
// algorithm name. Schedulers are deterministic and share nothing but
// the read-only graph and machine, so the concurrent result is
// identical to the sequential one.
func Compare(g *graph.Graph, m *machine.Machine) (map[string]*Schedule, error) {
	if g == nil || m == nil {
		return nil, fmt.Errorf("compare: nil graph or machine")
	}
	all := All()
	scs := make([]*Schedule, len(all))
	errs := make([]error, len(all))
	var wg sync.WaitGroup
	for i, s := range all {
		wg.Add(1)
		go func(i int, s Scheduler) {
			defer wg.Done()
			sc, err := s.Schedule(g, m)
			if err != nil {
				errs[i] = fmt.Errorf("compare %s: %w", s.Name(), err)
				return
			}
			sc.Finalize()
			scs[i] = sc
		}(i, s)
	}
	wg.Wait()
	out := map[string]*Schedule{}
	for i, s := range all {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out[s.Name()] = scs[i]
	}
	return out, nil
}
