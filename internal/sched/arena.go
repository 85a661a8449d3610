package sched

import (
	"sync"

	"repro/internal/machine"
)

// This file implements the scratch arena behind every Schedule call.
// The schedulers' per-run state — ready pools, EST caches, routed-
// arrival tables, copy lists — is a fixed set of flat arrays whose
// sizes depend only on the compiled graph (n tasks × P processors) and
// whose lifetime is exactly one Schedule call. Allocating them with
// make() on every run once cost tens of thousands of allocations and
// tens of megabytes per schedule; the garbage collector
// then re-marks them on every cycle. Instead each run carves its arrays
// out of a pooled arena of typed slabs: the slabs survive between runs
// in a sync.Pool, so steady-state scheduling performs no large
// allocations at all.
//
// Lifetime rules (also documented in docs/SCHEDULING.md):
//
//   - Arrays carved from the arena are valid until builder.release().
//     Nothing carved may escape into the returned *Schedule; the
//     Slots/Msgs slices handed to the caller are ordinary allocations.
//   - A slab grows by abandoning its buffer and allocating a larger
//     one; previously carved arrays keep the old buffer alive and stay
//     valid, so carving never invalidates earlier carves.
//   - Carves default to zeroed memory. Arrays that are fully
//     initialized by the caller (copied into, or guarded by a version
//     stamp) use the dirty variant and skip the clear.
//   - Arenas are single-goroutine, like the Schedule call that owns
//     one.

// slab is one typed bump allocator.
type slab[T any] struct {
	buf  []T
	off  int
	used int // total elements carved since the last reset
}

// take carves n elements. The carved slice has full capacity so callers
// can use it as an append target without clobbering later carves.
func (s *slab[T]) take(n int, zero bool) []T {
	s.used += n
	if s.off+n > len(s.buf) {
		grow := 2 * len(s.buf)
		if grow < s.off+n {
			grow = s.off + n
		}
		s.buf = make([]T, grow) // fresh buffer; old carves keep the old one alive
		s.off = 0
		out := s.buf[:n:n]
		s.off = n
		return out // fresh memory is already zero
	}
	out := s.buf[s.off : s.off+n : s.off+n]
	s.off += n
	if zero {
		clear(out)
	}
	return out
}

// reset rewinds the slab, and — when the run's total demand outgrew the
// buffer, spilling some carves into abandoned intermediate buffers —
// right-sizes it to that total. The next identical run then fits every
// carve in the one buffer and allocates nothing: without this, a run
// whose carve sequence grows the slab midway replays against a
// different starting length each time and can re-grow on every single
// run, paying hundreds of megabytes of fresh pages per schedule at
// 100k-task scale.
func (s *slab[T]) reset() {
	if s.used > len(s.buf) {
		s.buf = make([]T, s.used)
	}
	s.off, s.used = 0, 0
}

// arena bundles the slab types the schedulers need.
type arena struct {
	i32   slab[int32]
	u32   slab[uint32]
	u64   slab[uint64]
	tm    slab[machine.Time]
	slot  slab[Slot]
	slist slab[[]Slot]
}

// arenaPool is a bounded retained free-list rather than a sync.Pool.
// sync.Pool empties itself after two GC cycles, and at 100k-task scale
// re-growing the slabs is not a cheap make(): it is hundreds of
// megabytes of fresh address space whose every page costs a fault on
// first touch — the dominant cost of a large schedule on hosts where
// faults are serviced slowly (VMs especially). Steady-state interactive
// scheduling needs the slab pages to stay faulted in, so released
// arenas are kept forever, up to the cap; concurrent Schedule calls
// beyond it build fresh arenas that are garbage once released. Memory
// held is proportional to the largest graphs actually scheduled.
var arenaPool struct {
	sync.Mutex
	free []*arena
}

const arenaPoolCap = 8

func getArena() *arena {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	if n := len(arenaPool.free); n > 0 {
		a := arenaPool.free[n-1]
		arenaPool.free = arenaPool.free[:n-1]
		return a
	}
	return new(arena)
}

// release resets every slab and returns the arena to the pool. All
// arrays carved from it become invalid.
func (a *arena) release() {
	a.i32.reset()
	a.u32.reset()
	a.u64.reset()
	a.tm.reset()
	a.slot.reset()
	a.slist.reset()
	arenaPool.Lock()
	defer arenaPool.Unlock()
	if len(arenaPool.free) < arenaPoolCap {
		arenaPool.free = append(arenaPool.free, a)
	}
}

func (a *arena) int32s(n int, zero bool) []int32       { return a.i32.take(n, zero) }
func (a *arena) uint32s(n int, zero bool) []uint32     { return a.u32.take(n, zero) }
func (a *arena) uint64s(n int, zero bool) []uint64     { return a.u64.take(n, zero) }
func (a *arena) times(n int, zero bool) []machine.Time { return a.tm.take(n, zero) }
func (a *arena) slots(n int, zero bool) []Slot         { return a.slot.take(n, zero) }
func (a *arena) slotLists(n int, zero bool) [][]Slot   { return a.slist.take(n, zero) }
