package sched

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/machine"
)

// BSP schedules the DAG in BSP-ordered supersteps, after Papp, Anegg &
// Yzelman ("DAG Scheduling in the BSP Model"). Superstep k holds the
// tasks whose longest predecessor chain has k arcs. Supersteps are
// placed in order — every task of superstep k before any of superstep
// k+1, highest static level first within one (as HLFET) — each task on
// the processor where it finishes earliest, so every processor runs its
// slots in superstep order.
//
// The order is BSP's; the times are the list builder's. No start waits
// for a barrier, because no engine executes one: a slot starts once its
// processor is free and its data has arrived, exactly as the replay
// does. Of the BSP cost max(w) + h·g + L this charges w (ExecTime) and
// each message's startup plus g·words (CommTime). It charges no barrier
// latency L and no h-relation maximum: a superstep's messages overlap
// the next superstep's computation.
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

	// Superstep of each task: the length of its longest predecessor
	// chain, computed over the topological order.
	level := b.ar.int32s(c.n, true)
	for _, t := range c.topo {
		for _, a := range c.predArcsOf(t) {
			level[t] = max(level[t], level[a.from]+1)
		}
	}

	// Placement order: superstep-major, then the static priority HLFET
	// uses (higher static level first, ties by NodeID order).
	order := b.ar.int32s(c.n, false)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, x int32) int {
		if level[a] != level[x] {
			return cmp.Compare(level[a], level[x])
		}
		if c.slevel[a] != c.slevel[x] {
			return cmp.Compare(c.slevel[x], c.slevel[a])
		}
		return cmp.Compare(c.rank[a], c.rank[x])
	})
	for _, t := range order {
		if err := b.placeEarliest(t); err != nil {
			return nil, err
		}
	}
	return b.finish("bsp"), nil
}
