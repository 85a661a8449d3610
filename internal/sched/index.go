package sched

import (
	"cmp"
	"slices"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Index is an immutable set of derived views over a finalized schedule:
// per-processor slot lists pre-sorted by start time, a per-task map of
// slot ordinals covering primaries and duplicates, and the aggregate
// figures (makespan, per-PE busy time, outbound traffic) every display
// and check re-derives otherwise. It turns the Schedule accessors from
// linear scans over all slots into map and slice lookups, which is what
// keeps Validate, the simulator, the runner and the Gantt renderers
// linear as graphs grow. Nothing in it is sized by processor pairs: a
// cached schedule holds its index for as long as it is cached.
//
// Invalidation is by construction: schedulers assemble slots in a
// private builder and create the Schedule exactly once, finished, so an
// index built from a Schedule can never go stale. Code that mutates
// Slots or Msgs of an already-indexed Schedule by hand breaks that
// contract and owns the consequences.
type Index struct {
	byPE     [][]Slot                // per PE, sorted by (Start, Finish), stable; shared, callers must not mutate
	slotOf   map[graph.NodeID]int32  // ordinal in Slots of each task's first non-duplicate copy, else of its first
	copies   map[graph.NodeID][]Slot // every copy, in Slots order, of the tasks that have more than one
	busy     []machine.Time          // per-PE total busy time
	msgsOut  []int                   // per-PE cross-PE messages originated
	wordsOut []int64                 // per-PE cross-PE words originated
	makespan machine.Time
	usedPEs  int
}

// index returns the schedule's Index, building it on first use. The
// lazy build is safe under concurrent first use: racing callers may
// each build the index, but the build is deterministic over immutable
// inputs, exactly one result is published, and every caller returns a
// fully-built view. Concurrent runs sharing one schedule rely on this
// — the serve cache-hit path hands the same cached schedule to several
// fleet runs at once.
func (s *Schedule) index() *Index {
	if idx := s.idx.Load(); idx != nil {
		return idx
	}
	idx := buildIndex(s)
	if s.idx.CompareAndSwap(nil, idx) {
		return idx
	}
	return s.idx.Load()
}

// buildIndex derives every view in one pass over Slots and Msgs. Slots
// naming processors outside the machine appear only in the per-task
// views; Validate reports them from its own slot pass.
func buildIndex(s *Schedule) *Index {
	numPE := 0
	if s.Machine != nil {
		numPE = s.Machine.NumPE()
	}
	idx := &Index{
		byPE:     make([][]Slot, numPE),
		slotOf:   make(map[graph.NodeID]int32, len(s.Slots)),
		copies:   map[graph.NodeID][]Slot{},
		busy:     make([]machine.Time, numPE),
		msgsOut:  make([]int, numPE),
		wordsOut: make([]int64, numPE),
	}
	for i, sl := range s.Slots {
		j, seen := idx.slotOf[sl.Task]
		if seen { // a later copy: j is the first until a primary replaces it
			cps, ok := idx.copies[sl.Task]
			if !ok {
				cps = []Slot{s.Slots[j]}
			}
			idx.copies[sl.Task] = append(cps, sl)
		}
		if !seen || (s.Slots[j].Dup && !sl.Dup) {
			idx.slotOf[sl.Task] = int32(i)
		}
		if sl.Finish > idx.makespan {
			idx.makespan = sl.Finish
		}
		if sl.PE >= 0 && sl.PE < numPE {
			idx.byPE[sl.PE] = append(idx.byPE[sl.PE], sl)
			idx.busy[sl.PE] += sl.Finish - sl.Start
		}
	}
	for pe := range idx.byPE {
		// Replay order: by start, then by finish — a zero-length slot
		// runs before a longer one that starts with it — then in Slots
		// order.
		slots := idx.byPE[pe]
		slices.SortStableFunc(slots, func(a, b Slot) int {
			return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Finish, b.Finish))
		})
		if len(slots) > 0 {
			idx.usedPEs++
		}
	}
	for _, m := range s.Msgs {
		if m.FromPE != m.ToPE && m.FromPE >= 0 && m.FromPE < numPE {
			idx.msgsOut[m.FromPE]++
			idx.wordsOut[m.FromPE] += m.Words
		}
	}
	return idx
}
