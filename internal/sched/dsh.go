package sched

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
)

// DSH is Kruatrachue's Duplication Scheduling Heuristic (Kruatrachue &
// Lewis, "Static Task Scheduling and Grain Packing in Parallel
// Processing Systems", 1987). It runs static-priority list scheduling
// like HLFET but, for every candidate processor, first asks how early
// the task could start if the ancestors whose messages delay it were
// duplicated into the processor's idle time — trading redundant
// computation for communication — and then commits the task and its
// profitable duplicates to the best processor.
//
// This implementation duplicates direct critical parents iteratively
// (each duplication can expose a new critical parent) and accepts a
// duplication only when it strictly lowers the task's start time on
// that processor, which guarantees termination.
type DSH struct {
	// MaxDupsPerTask bounds how many ancestor copies may be inserted
	// while placing one task; 0 means the number of predecessors.
	MaxDupsPerTask int
}

// Name implements Scheduler.
func (DSH) Name() string { return "dsh" }

// dupPlan is one ancestor copy the per-PE evaluation decided to insert.
type dupPlan struct {
	task  int32
	start machine.Time
}

// dshState holds the scratch buffers of the hypothetical duplication
// evaluation, so estWithDups runs without allocating: the virtual
// overlay is a flat finish array validated by an epoch stamp instead of
// a fresh map per (task, pe) evaluation. The evaluation reads the
// builder but never writes it.
type dshState struct {
	virtFinish []machine.Time // finish of the virtual copy on the candidate pe
	virtStamp  []uint32       // overlay entry valid iff stamp == epoch
	epoch      uint32
	plan       []dupPlan // scratch for the evaluation in progress
	bestPlan   []dupPlan // retained copy of the best processor's plan
}

func newDSHState(n int, ar *arena) *dshState {
	return &dshState{
		virtFinish: ar.times(n, false),
		virtStamp:  ar.uint32s(n, true),
	}
}

// Schedule implements Scheduler.
func (d DSH) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	c := b.c
	st := newDSHState(c.n, b.ar)
	h := newReadyHeap(c, b.ar)
	for h.len() > 0 {
		t := h.pop() // highest static level first (as HLFET)

		// Evaluate every processor with hypothetical duplication and
		// keep the one with the earliest finish (ties: lowest PE) and a
		// copy of its plan.
		best := cand{}
		st.bestPlan = st.bestPlan[:0]
		for pe := 0; pe < c.pes; pe++ {
			start, plan, err := d.estWithDups(b, st, t, pe)
			if err != nil {
				return nil, err
			}
			fin := start + c.exec(t, pe)
			if betterPE(best.ok, best.fin, best.pe, fin, pe) {
				best = cand{ok: true, t: t, pe: pe, st: start, fin: fin}
				st.bestPlan = append(st.bestPlan[:0], plan...)
			}
		}
		for _, dp := range st.bestPlan {
			if _, err := b.place(dp.task, best.pe, dp.start, true); err != nil {
				return nil, err
			}
		}
		if _, err := b.place(t, best.pe, best.st, false); err != nil {
			return nil, err
		}
		h.complete(t)
	}
	return b.finish("dsh"), nil
}

// estWithDups computes the earliest start of t on pe allowing ancestor
// duplication, without mutating the builder. It returns the start and
// the ordered list of duplicates to insert to achieve it. The returned
// slice aliases st.plan and is only valid until the next call.
func (d DSH) estWithDups(b *builder, st *dshState, t int32, pe int) (machine.Time, []dupPlan, error) {
	c := b.c
	preds := c.predArcsOf(t)
	maxDups := d.MaxDupsPerTask
	if maxDups <= 0 {
		maxDups = len(preds)
	}
	procFree := b.procFree[pe]
	st.epoch++
	st.plan = st.plan[:0]

	// arrivalV is builder.arrival extended with the virtual overlay.
	arrivalV := func(a carc) (machine.Time, bool, error) {
		at, src, err := b.arrival(a, pe)
		if err != nil {
			return 0, false, err
		}
		remote := src.PE != pe
		if st.virtStamp[a.from] == st.epoch && st.virtFinish[a.from] <= at {
			at, remote = st.virtFinish[a.from], false
		}
		return at, remote, nil
	}
	// estV computes the earliest start of any task on pe under the
	// overlay (used both for t and for candidate duplicates).
	estV := func(task int32) (machine.Time, error) {
		start := procFree
		for _, a := range c.predArcsOf(task) {
			at, _, err := arrivalV(a)
			if err != nil {
				return 0, err
			}
			if at > start {
				start = at
			}
		}
		return start, nil
	}

	for len(st.plan) < maxDups {
		start, err := estV(t)
		if err != nil {
			return 0, nil, err
		}
		// Find the remote arc that pins the start, if any.
		critical := int32(-1)
		pinned := procFree
		for _, a := range preds {
			at, remote, err := arrivalV(a)
			if err != nil {
				return 0, nil, err
			}
			if at > pinned {
				pinned = at
				if remote {
					critical = a.from
				} else {
					critical = -1
				}
			}
		}
		if critical < 0 {
			return start, st.plan, nil
		}
		if st.virtStamp[critical] == st.epoch {
			return start, st.plan, nil // already duplicated
		}
		dupStart, err := estV(critical)
		if err != nil {
			return 0, nil, err
		}
		dupFinish := dupStart + c.exec(critical, pe)
		if dupFinish >= start {
			return start, st.plan, nil // duplication cannot beat the message
		}
		st.virtFinish[critical] = dupFinish
		st.virtStamp[critical] = st.epoch
		procFree = dupFinish
		st.plan = append(st.plan, dupPlan{task: critical, start: dupStart})
	}
	start, err := estV(t)
	if err != nil {
		return 0, nil, err
	}
	// Keep the plan ordered by start so commits respect precedence.
	sort.Slice(st.plan, func(i, j int) bool { return st.plan[i].start < st.plan[j].start })
	return start, st.plan, nil
}
