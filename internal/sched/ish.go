package sched

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
)

// ISH is the Insertion Scheduling Heuristic of Kruatrachue & Lewis:
// static-priority list scheduling (like HLFET) that, instead of always
// appending a task after a processor's last slot, may insert it into an
// idle hole left earlier on the processor while it was waiting for
// messages. Holes are exactly the "schedule gaps" Kruatrachue's thesis
// identifies as wasted by non-insertion list schedulers.
type ISH struct{}

// Name implements Scheduler.
func (ISH) Name() string { return "ish" }

// insertionPoint finds the earliest start for a task of the given
// duration on pe, no earlier than ready, considering the idle gaps
// between already-placed slots. slots must be sorted by start.
func insertionPoint(slots []Slot, ready machine.Time, dur machine.Time) machine.Time {
	cur := ready
	for _, sl := range slots {
		if cur+dur <= sl.Start {
			return cur // fits in the gap before this slot
		}
		if sl.Finish > cur {
			cur = sl.Finish
		}
	}
	return cur
}

// Schedule implements Scheduler.
func (ISH) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	c := b.c
	peSlots := make([][]Slot, c.pes)
	h := newReadyHeap(c, b.ar)
	for h.len() > 0 {
		t := h.pop() // highest static level first, as HLFET
		best := cand{}
		for pe := 0; pe < c.pes; pe++ {
			// Data-ready time on this processor (cached incrementally;
			// insertion ignores procFree by design).
			ready, err := b.dataReady(t, pe)
			if err != nil {
				return nil, err
			}
			dur := c.exec(t, pe)
			start := insertionPoint(peSlots[pe], ready, dur)
			fin := start + dur
			if betterPE(best.ok, best.fin, best.pe, fin, pe) {
				best = cand{ok: true, t: t, pe: pe, st: start, fin: fin}
			}
		}
		sl, err := b.place(t, best.pe, best.st, false)
		if err != nil {
			return nil, err
		}
		// Keep the processor's slot list sorted by start with a binary
		// insert instead of re-sorting after every placement.
		sls := peSlots[best.pe]
		i := sort.Search(len(sls), func(i int) bool { return sls[i].Start > sl.Start })
		sls = append(sls, Slot{})
		copy(sls[i+1:], sls[i:])
		sls[i] = sl
		peSlots[best.pe] = sls
		h.complete(t)
	}
	return b.finish("ish"), nil
}
