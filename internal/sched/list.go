package sched

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Scheduler maps a flat task graph onto a machine. Implementations must
// be deterministic: the same inputs always yield the same schedule.
type Scheduler interface {
	Name() string
	Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error)
}

// builder holds the incremental state shared by the list schedulers,
// working entirely on the compiled graph view (dense task ids). All of
// it except the escaping Slots/Msgs product is carved from a pooled
// arena; release returns the scratch when the Schedule call ends.
type builder struct {
	c        *compiled
	ar       *arena
	procFree []machine.Time
	slots    []Slot
	copies   [][]Slot // dense id -> all placed copies of the task
	copyBuf  []Slot   // backing store for each task's first copy
	cache    estCache

	// Message stubs: stub records cross-PE messages as parallel
	// pointer-free arrays in the arena and finish materialises the
	// []Msg once, exactly sized. A growing []Msg would otherwise be
	// the largest live object of the whole run — ~96 bytes per message
	// with three string headers each for the GC to scan, hundreds of
	// megabytes at 100k tasks — and marking it repeatedly dominates
	// large schedules. The stubs carry no pointers, so the GC skips
	// their spans entirely.
	stubAidx   []int32 // original arc index (Var/From/To/Words live there)
	stubTo     []int32 // consumer dense id
	stubToPE   []int32
	stubSrcPE  []int32
	stubSrcFin []machine.Time
	stubRecv   []machine.Time
}

func newBuilder(g *graph.Graph, m *machine.Machine) (*builder, error) {
	if g == nil || m == nil {
		return nil, fmt.Errorf("sched: nil graph or machine")
	}
	if err := g.ValidateFlat(); err != nil {
		return nil, fmt.Errorf("sched: graph not flat: %w", err)
	}
	c, err := compiledFor(g, m)
	if err != nil {
		return nil, err
	}
	ar := getArena()
	b := &builder{
		c:        c,
		ar:       ar,
		procFree: ar.times(c.pes, true),
		slots:    make([]Slot, 0, c.n),
		copies:   ar.slotLists(c.n, false),
		copyBuf:  ar.slots(c.n, false),
		cache:    newEstCache(c.n, c.pes, ar),
	}
	// Every task has exactly one copy unless a duplication scheduler
	// adds more, so give each its own cap-1 backing slot up front.
	for i := range b.copies {
		b.copies[i] = b.copyBuf[i : i : i+1]
	}
	return b, nil
}

// release returns the builder's scratch to the pools. Every Schedule
// implementation defers it; it is idempotent, and the Slots/Msgs slices
// handed out via finish stay valid.
func (b *builder) release() {
	if b.ar != nil {
		b.ar.release()
		b.ar = nil
	}
}

// errProducerNotPlaced is the shared "producer not placed" error.
func errProducerNotPlaced(a graph.Arc) error {
	return fmt.Errorf("sched: arc %s->%s: producer not placed", a.From, a.To)
}

// arrival returns the earliest time the data of arc a can be available
// on processor pe, minimised over all placed copies of the producer,
// and the copy achieving it. The producer must already be placed.
func (b *builder) arrival(a carc, pe int) (machine.Time, Slot, error) {
	cps := b.copies[a.from]
	if len(cps) == 0 {
		return 0, Slot{}, errProducerNotPlaced(b.c.arcs[a.aidx])
	}
	best := cps[0]
	bestAt := best.Finish + b.c.comm(a.words, best.PE, pe)
	for _, c := range cps[1:] {
		at := c.Finish + b.c.comm(a.words, c.PE, pe)
		if at < bestAt || (at == bestAt && c.PE < best.PE) {
			bestAt, best = at, c
		}
	}
	return bestAt, best, nil
}

// est returns the earliest start time of task t on processor pe under
// the contention-free model (non-insertion: after the processor's last
// placed slot). The data-ready part comes from the incremental cache.
func (b *builder) est(t int32, pe int) (machine.Time, error) {
	ready, err := b.dataReady(t, pe)
	if err != nil {
		return 0, err
	}
	if pf := b.procFree[pe]; pf > ready {
		return pf, nil
	}
	return ready, nil
}

// place commits task t to processor pe at the given start, records the
// messages feeding it, and returns the slot.
func (b *builder) place(t int32, pe int, start machine.Time, dup bool) (Slot, error) {
	id := b.c.ids[t]
	sl := Slot{Task: id, PE: pe, Start: start, Finish: start + b.c.exec(t, pe), Dup: dup}
	for _, a := range b.c.predArcsOf(t) {
		at, src, err := b.arrival(a, pe)
		if err != nil {
			return Slot{}, err
		}
		oa := &b.c.arcs[a.aidx]
		if at > start {
			return Slot{}, fmt.Errorf("sched: task %s placed at %v before data %s arrives at %v", id, start, oa.Var, at)
		}
		if src.PE != pe {
			b.stub(a.aidx, t, pe, src, at)
		}
	}
	b.commitSlot(t, sl)
	return sl, nil
}

// stub records the cross-PE message of arc aidx from the producer copy
// src to task t on pe, arriving at recv.
func (b *builder) stub(aidx, t int32, pe int, src Slot, recv machine.Time) {
	if b.stubAidx == nil {
		// Carved for the worst case (every arc crosses PEs) but only
		// when a first message actually exists. Duplication schedulers
		// can exceed the cap — append then falls back to the heap,
		// still pointer-free.
		n := len(b.c.arcs)
		b.stubAidx = b.ar.int32s(n, false)[:0]
		b.stubTo = b.ar.int32s(n, false)[:0]
		b.stubToPE = b.ar.int32s(n, false)[:0]
		b.stubSrcPE = b.ar.int32s(n, false)[:0]
		b.stubSrcFin = b.ar.times(n, false)[:0]
		b.stubRecv = b.ar.times(n, false)[:0]
	}
	b.stubAidx = append(b.stubAidx, aidx)
	b.stubTo = append(b.stubTo, t)
	b.stubToPE = append(b.stubToPE, int32(pe))
	b.stubSrcPE = append(b.stubSrcPE, int32(src.PE))
	b.stubSrcFin = append(b.stubSrcFin, src.Finish)
	b.stubRecv = append(b.stubRecv, recv)
}

// commitSlot records a placed slot: appends it, registers the copy,
// advances the processor, and invalidates the cached earliest-start
// entries of the task's direct successors (the only tasks whose
// data-ready times the new copy can change).
func (b *builder) commitSlot(t int32, sl Slot) {
	b.slots = append(b.slots, sl)
	b.copies[t] = append(b.copies[t], sl)
	if sl.Finish > b.procFree[sl.PE] {
		b.procFree[sl.PE] = sl.Finish
	}
	for _, s := range b.c.succIDsOf(t) {
		b.cache.invalidate(s)
	}
}

// finish materialises the message stubs into the exactly-sized []Msg
// and assembles the Schedule. It must run before release: the stubs
// live in the arena.
func (b *builder) finish(alg string) *Schedule {
	msgs := make([]Msg, len(b.stubAidx)) // non-nil when empty: JSON encodes [] rather than null
	for i, ai := range b.stubAidx {
		oa := &b.c.arcs[ai]
		fp, tp := int(b.stubSrcPE[i]), int(b.stubToPE[i])
		msgs[i] = Msg{
			Var: oa.Var, From: oa.From, To: b.c.ids[b.stubTo[i]],
			FromPE: fp, ToPE: tp, Words: oa.Words,
			Send: b.stubSrcFin[i], Recv: b.stubRecv[i],
			Hops: b.c.m.Topo.Hops(fp, tp),
		}
	}
	return &Schedule{Graph: b.c.g, Machine: b.c.m, Algorithm: alg, Slots: b.slots, Msgs: msgs}
}

// cand is one scored candidate placement.
type cand struct {
	ok  bool
	t   int32
	idx int // index in the scanned slice (ready-pool position)
	pe  int
	st  machine.Time
	fin machine.Time
}

// betterCand reports whether next beats cur under the dynamic greedy
// total order shared by ETF and MH: earlier finish, then higher static
// level, then NodeID order, then lower PE. The key is strict (rank is
// unique per task, PE unique within a task), so the minimum is unique.
func (c *compiled) betterCand(cur, next cand) bool {
	switch {
	case !next.ok:
		return false
	case !cur.ok:
		return true
	case next.fin != cur.fin:
		return next.fin < cur.fin
	case c.slevel[next.t] != c.slevel[cur.t]:
		return c.slevel[next.t] > c.slevel[cur.t]
	case next.t != cur.t:
		return c.rank[next.t] < c.rank[cur.t]
	default:
		return next.pe < cur.pe
	}
}

// betterPE reports whether (fin,pe) beats cur under the static-priority
// order shared by HLFET, DSH, ISH and BSP when placing a single task:
// earlier finish, then lower PE.
func betterPE(curOK bool, curFin machine.Time, curPE int, fin machine.Time, pe int) bool {
	if !curOK {
		return true
	}
	if fin != curFin {
		return fin < curFin
	}
	return pe < curPE
}

// Serial schedules every task on processor 0 in topological order. It
// is the one-processor baseline the paper's speedup chart divides by.
type Serial struct{}

// Name implements Scheduler.
func (Serial) Name() string { return "serial" }

// Schedule implements Scheduler.
func (Serial) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	for _, t := range b.c.topo {
		st, err := b.est(t, 0)
		if err != nil {
			return nil, err
		}
		if _, err := b.place(t, 0, st, false); err != nil {
			return nil, err
		}
	}
	return b.finish("serial"), nil
}

// HLFET is Highest Level First with Estimated Times: static-priority
// list scheduling by static b-level, placing each task on the processor
// where it can start earliest.
type HLFET struct{}

// Name implements Scheduler.
func (HLFET) Name() string { return "hlfet" }

// Schedule implements Scheduler.
func (HLFET) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	h := newReadyHeap(b.c, b.ar)
	for h.len() > 0 {
		t := h.pop() // highest static level first; ties by id
		if err := b.placeEarliest(t); err != nil {
			return nil, err
		}
		h.complete(t)
	}
	return b.finish("hlfet"), nil
}

// placeEarliest places task t on the processor where it finishes
// earliest, after that processor's last slot: the per-task step of HLFET
// and BSP, which differ only in the order they present tasks. The
// data-ready row is computed arc-major (one pass over the predecessors
// fills every PE's entry); the scan only reads it.
func (b *builder) placeEarliest(t int32) error {
	row, err := b.dataReadyRow(t)
	if err != nil {
		return err
	}
	best := cand{}
	for pe, st := range row {
		if pf := b.procFree[pe]; pf > st {
			st = pf
		}
		fin := st + b.c.exec(t, pe)
		if betterPE(best.ok, best.fin, best.pe, fin, pe) {
			best = cand{ok: true, t: t, pe: pe, st: st, fin: fin}
		}
	}
	_, err = b.place(t, best.pe, best.st, false)
	return err
}

// ETF is Earliest Task First: at each step the (ready task, processor)
// pair with the smallest earliest start time is chosen; ties are broken
// by higher static level, then task id, then processor index.
type ETF struct{}

// Name implements Scheduler.
func (ETF) Name() string { return "etf" }

// Schedule implements Scheduler.
func (ETF) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	if err := b.etf(nil, nil); err != nil {
		return nil, err
	}
	return b.finish("etf"), nil
}

// etf places, by the ETF rule, every task not flagged held onto the
// processors flagged live (nil: all of them). Held tasks are never
// placed: their results exist already (see Replan).
func (b *builder) etf(live, held []bool) error {
	c := b.c
	rt := newReadyTracker(c, b.ar, held)

	// lbFin[t] is a monotone lower bound on task t's best finish time
	// over the live processors. ETF never duplicates, so a ready task's
	// data-ready times are fixed, and procFree only advances — the best
	// finish computed at any earlier step can only have grown since.
	// A ready task whose bound is strictly worse than the running best
	// cannot win (the candidate order is strict on finish first), so
	// the scan skips its whole processor loop. Zero (the carve default)
	// is the trivially valid initial bound.
	lbFin := b.ar.times(c.n, true)

	// evalTask fully evaluates ready[i] on every processor from its
	// arc-major data-ready row. For a fixed task the candidate order
	// reduces to (finish, pe), so a strict < keeps the lowest PE on
	// ties.
	evalTask := func(i int) (cand, error) {
		t := rt.ready[i]
		row, err := b.dataReadyRow(t)
		if err != nil {
			return cand{}, err
		}
		ex := c.exec(t, 0) // every processor's, unless speeds differ
		tbest := cand{}
		for pe := 0; pe < c.pes; pe++ {
			if live != nil && !live[pe] {
				continue
			}
			st := row[pe]
			if pf := b.procFree[pe]; pf > st {
				st = pf
			}
			if c.hetero {
				ex = c.exec(t, pe)
			}
			fin := st + ex
			if !tbest.ok || fin < tbest.fin {
				tbest = cand{ok: true, t: t, idx: i, pe: pe, st: st, fin: fin}
			}
		}
		lbFin[t] = tbest.fin
		return tbest, nil
	}

	for len(rt.ready) > 0 {
		// The running best doubles as the pruning bound; a task is only
		// skipped when its recorded bound is strictly worse, and every
		// full evaluation refreshes the bound. (A stronger initial bound
		// — e.g. pre-evaluating the argmin-bound task — measures *slower*
		// at scale: it suppresses the evaluations that keep the other
		// tasks' bounds tight, and the stale bounds force far more
		// re-evaluations on later steps.)
		best := cand{}
		for i, t := range rt.ready {
			if best.ok && lbFin[t] > best.fin {
				continue
			}
			tbest, err := evalTask(i)
			if err != nil {
				return err
			}
			if c.betterCand(best, tbest) {
				best = tbest
			}
		}
		t := rt.take(best.idx)
		if _, err := b.place(t, best.pe, best.st, false); err != nil {
			return err
		}
		rt.complete(t)
	}
	return nil
}
