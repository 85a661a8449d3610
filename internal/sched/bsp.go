package sched

import (
	"repro/internal/graph"
	"repro/internal/machine"
)

// BSP schedules the DAG in bulk-synchronous supersteps, after Papp,
// Anegg & Yzelman ("DAG Scheduling in the BSP Model"). The graph is
// partitioned into levels — superstep k holds the tasks whose longest
// predecessor chain has k arcs — and a communication barrier separates
// consecutive supersteps: no task of superstep k+1 starts before every
// task of superstep k has finished. Within a superstep tasks are
// assigned greedily in static-priority order (highest static level
// first, as HLFET) to the processor where they finish earliest.
//
// The BSP cost model makes the batch structure explicit: a superstep
// costs max(w_i) + h·g + L — the slowest processor's computation, the
// largest communication fan h times per-word gain g, and the barrier
// latency L. Here computation and communication times come from the
// machine model (ExecTime / CommTime) and the barrier is the max
// finish of the superstep, so the produced schedule stays valid under
// Schedule.Validate's lower-bound checks.
type BSP struct{}

// Name implements Scheduler.
func (BSP) Name() string { return "bsp" }

// Schedule implements Scheduler.
func (BSP) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	c := b.c

	// Level of each task: length of its longest predecessor chain,
	// computed over the topological order.
	level := b.ar.int32s(c.n, true)
	maxLevel := int32(0)
	for _, t := range c.topo {
		for _, a := range c.predArcsOf(t) {
			if level[a.from]+1 > level[t] {
				level[t] = level[a.from] + 1
			}
		}
		if level[t] > maxLevel {
			maxLevel = level[t]
		}
	}

	// Bucket tasks by level (CSR), then order each superstep by the
	// static priority HLFET uses: higher static level first, ties by
	// NodeID order.
	off := b.ar.int32s(int(maxLevel)+2, true)
	for t := 0; t < c.n; t++ {
		off[level[t]+1]++
	}
	for l := int32(0); l <= maxLevel; l++ {
		off[l+1] += off[l]
	}
	byLevel := b.ar.int32s(c.n, false)
	fill := b.ar.int32s(int(maxLevel)+1, true)
	for t := int32(0); t < int32(c.n); t++ {
		l := level[t]
		byLevel[off[l]+fill[l]] = t
		fill[l]++
	}
	for l := int32(0); l <= maxLevel; l++ {
		row := byLevel[off[l]:off[l+1]]
		sortInt32(row, func(a, x int32) bool {
			if c.slevel[a] != c.slevel[x] {
				return c.slevel[a] > c.slevel[x]
			}
			return c.rank[a] < c.rank[x]
		})
	}

	var barrier machine.Time
	for l := int32(0); l <= maxLevel; l++ {
		// Greedy assignment in priority order: earliest finish under
		// the barrier, ties to the lowest processor.
		levelEnd := barrier
		for _, t := range byLevel[off[l]:off[l+1]] {
			row, err := b.dataReadyRow(t)
			if err != nil {
				return nil, err
			}
			best := cand{}
			for pe := 0; pe < c.pes; pe++ {
				st := row[pe]
				if pf := b.procFree[pe]; pf > st {
					st = pf
				}
				if barrier > st {
					st = barrier
				}
				fin := st + c.exec(t, pe)
				if betterPE(best.ok, best.fin, best.pe, fin, pe) {
					best = cand{ok: true, t: t, pe: pe, st: st, fin: fin}
				}
			}
			if _, err := b.place(t, best.pe, best.st, false); err != nil {
				return nil, err
			}
			if best.fin > levelEnd {
				levelEnd = best.fin
			}
		}
		barrier = levelEnd
	}
	return b.finish("bsp"), nil
}
