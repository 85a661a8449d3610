package sched

import "repro/internal/machine"

// estCache is the incremental earliest-start-time cache behind
// builder.est. It memoizes the data-ready time of every (task, pe)
// pair — the max over predecessor arcs of the best copy's arrival —
// which is the expensive part of an EST query: the greedy schedulers
// re-evaluate every (ready task, pe) pair each step, but placing one
// task only changes the data-ready time of its direct successors
// (their producer gained a copy). Processor availability is NOT part
// of the cached value; est applies procFree live, so advancing a PE's
// procFree needs no invalidation at all.
//
// Invalidation is by version counter: entry (t, pe) is valid iff
// ver[t*P+pe] == taskVer[t], and placing a copy of any task bumps
// taskVer of its successors. taskVer starts at 1 with ver zeroed so
// every entry begins invalid.
type estCache struct {
	pes     int
	arr     []machine.Time // n×P cached data-ready times
	ver     []uint32       // n×P version an entry was computed at
	taskVer []uint32       // per-task current version
}

// newEstCache carves the cache from the run's arena. arr is carved
// dirty: an entry is only read when its version stamp matches, and the
// stamp arrays are zeroed/refilled here.
func newEstCache(n, pes int, ar *arena) estCache {
	e := estCache{
		pes:     pes,
		arr:     ar.times(n*pes, false),
		ver:     ar.uint32s(n*pes, true),
		taskVer: ar.uint32s(n, false),
	}
	for i := range e.taskVer {
		e.taskVer[i] = 1
	}
	return e
}

// invalidate drops every cached entry of task t (all PEs at once).
func (e *estCache) invalidate(t int32) { e.taskVer[t]++ }

// dataReadyRow returns task t's data-ready times on every processor as
// a shared slice of the cache (read-only to callers), recomputing the
// row arc-major on a version miss: one pass over the predecessor arcs
// fills all P entries, so each arc and producer copy is loaded once
// instead of once per processor. The schedulers that always evaluate a
// task on every PE (HLFET, ETF, BSP) use this; the per-entry dataReady
// below stays for selective callers.
func (b *builder) dataReadyRow(t int32) ([]machine.Time, error) {
	e := &b.cache
	base := int(t) * e.pes
	row := e.arr[base : base+e.pes]
	vrow := e.ver[base : base+e.pes]
	tv := e.taskVer[t]
	fresh := true
	for _, v := range vrow {
		if v != tv {
			fresh = false
			break
		}
	}
	if fresh {
		return row, nil
	}
	for i := range row {
		row[i] = 0
	}
	for _, a := range b.c.predArcsOf(t) {
		cps := b.copies[a.from]
		if len(cps) == 0 {
			return nil, errProducerNotPlaced(b.c.arcs[a.aidx])
		}
		if len(cps) == 1 {
			// No duplicates (the common case): inline the comm formula
			// over the producer PE's row of hop counts.
			sl := cps[0]
			w := machine.Time(a.words) * b.c.wordTime
			hops := b.c.hops[sl.PE]
			for pe := range row {
				at := sl.Finish
				if pe != sl.PE {
					at += b.c.commStart + w*machine.Time(hops[pe])
				}
				if at > row[pe] {
					row[pe] = at
				}
			}
		} else {
			for pe := range row {
				at, _, err := b.arrival(a, pe)
				if err != nil {
					return nil, err
				}
				if at > row[pe] {
					row[pe] = at
				}
			}
		}
	}
	for i := range vrow {
		vrow[i] = tv
	}
	return row, nil
}

// dataReady returns the earliest time all of t's inputs can be present
// on pe (0 for entry tasks), from the cache when the entry is current.
func (b *builder) dataReady(t int32, pe int) (machine.Time, error) {
	i := int(t)*b.cache.pes + pe
	if b.cache.ver[i] == b.cache.taskVer[t] {
		return b.cache.arr[i], nil
	}
	var ready machine.Time
	for _, a := range b.c.predArcsOf(t) {
		at, _, err := b.arrival(a, pe)
		if err != nil {
			return 0, err
		}
		if at > ready {
			ready = at
		}
	}
	b.cache.arr[i] = ready
	b.cache.ver[i] = b.cache.taskVer[t]
	return ready, nil
}
