package sched

import (
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/machine"
)

// This file implements the compiled graph view shared by every
// scheduler: dense integer task ids, predecessor/successor arc lists in
// flat CSR slices, precomputed static levels, execution times and
// communication coefficients, built so the hot loops — which evaluate
// O(n·P) candidate placements per task — never touch a map, allocate a
// slice, or compare a string.
//
// The view is immutable once built and depends only on the graph and
// machine, so it is cached: compiledFor keys a small LRU on the
// (graph, machine) identity plus the graph's mutation version. At 100k
// tasks compiling costs tens of seconds (dominated by the 2×8.8M-entry
// CSR fill and its string-keyed id lookups); scheduling the same design
// repeatedly — the paper's sketch/schedule/tweak loop — must not re-pay
// it.
//
// Determinism contract: dense ids are insertion positions, and every
// tie the original schedulers broke by NodeID string order is broken
// here through the precomputed rank table (rank[i] = position of
// task i's NodeID in sorted order), so schedules are byte-identical to
// the pre-compiled implementations (see golden_test.go).

// carc is a compiled arc: dense endpoints plus the index of the
// original arc (for message records, which need Var and NodeIDs).
type carc struct {
	from, to int32
	words    int64
	aidx     int32
}

// compiled is the immutable view of a flat graph on a machine.
type compiled struct {
	g    *graph.Graph
	m    *machine.Machine
	gver uint64 // g.Version() when compiled

	n   int // number of tasks
	pes int

	ids  []graph.NodeID         // dense id -> NodeID (insertion order)
	idOf map[graph.NodeID]int32 // NodeID -> dense id
	rank []int32                // dense id -> position in sorted-NodeID order
	work []int64                // dense id -> abstract work
	arcs []graph.Arc            // shared with g.Arcs(); aidx points here

	// Predecessor/successor arcs in CSR layout, arc-insertion order
	// within each node (matching graph.PredArcs/SuccArcs).
	predOff []int32
	preds   []carc
	succOff []int32
	succs   []carc

	// Distinct successors per task, sorted by NodeID (matching
	// graph.Successors), and the distinct-predecessor counts the ready
	// tracker counts down. CSR layout.
	succIDOff []int32
	succIDs   []int32
	npred     []int32

	slevel []int64 // static level (HLFET priority), identical to Levels.SLevel
	topo   []int32 // topological order, identical to graph.TopoSort

	execT  []machine.Time // ExecTime(work[t], pe): one per task, a row of P per task only when hetero
	hetero bool           // the machine has Speeds, so exec times differ by processor

	commStart, wordTime machine.Time // see machine.CommCoeffs
	hops                [][]int      // the topology's own hop table: a view keeps nothing P×P
}

// succIDsOf returns the distinct successors of t, sorted by NodeID.
func (c *compiled) succIDsOf(t int32) []int32 {
	return c.succIDs[c.succIDOff[t]:c.succIDOff[t+1]]
}

// predArcsOf returns the compiled predecessor arcs of t in insertion
// order.
func (c *compiled) predArcsOf(t int32) []carc {
	return c.preds[c.predOff[t]:c.predOff[t+1]]
}

// succArcsOf returns the compiled successor arcs of t in insertion
// order.
func (c *compiled) succArcsOf(t int32) []carc {
	return c.succs[c.succOff[t]:c.succOff[t+1]]
}

// exec returns the execution time of task t on pe.
func (c *compiled) exec(t int32, pe int) machine.Time {
	if c.hetero {
		return c.execT[int(t)*c.pes+pe]
	}
	return c.execT[t]
}

// comm returns the communication time of a words-sized message from p
// to q (0 when co-located), the inlined CommTime fast path.
func (c *compiled) comm(words int64, p, q int) machine.Time {
	if p == q {
		return 0
	}
	return c.commStart + machine.Time(words)*c.wordTime*machine.Time(c.hops[p][q])
}

// memo is a bounded most-recently-used list of immutable values built
// from inputs the caller identifies by pointer: the compiled views and
// MH's route tables. Entries pin what they were built from, so the
// capacity bounds how much retired input a memo can keep alive; churny
// callers (the conformance fuzzer generates thousands of small graphs)
// evict old entries quickly.
//
// The build runs outside the lock: concurrent misses on different keys
// — every cold request of a server — build in parallel. Two goroutines
// missing on the same key may both build; values are immutable and
// equal, so the loser's copy is simply dropped.
type memo[T any] struct {
	sync.Mutex
	entries []*T // most recently used last

	// With size set, the entries' total size is bounded by budget too:
	// the least recently used are evicted until the rest fit, though
	// never the entry just inserted.
	size   func(*T) int
	budget int
	total  int
}

const memoCap = 8

// get returns the entry match accepts, building and inserting it on a
// miss. Errors are not memoized.
func (mc *memo[T]) get(match func(*T) bool, build func() (*T, error)) (*T, error) {
	mc.Lock()
	v := mc.hit(match)
	mc.Unlock()
	if v != nil {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return nil, err
	}
	mc.Lock()
	defer mc.Unlock()
	if won := mc.hit(match); won != nil {
		return won, nil
	}
	mc.entries = append(mc.entries, v)
	mc.total += mc.sizeOf(v)
	for len(mc.entries) > memoCap || (len(mc.entries) > 1 && mc.total > mc.budget) {
		// Shift rather than reslice, so the backing array does not keep
		// the evicted entry alive.
		mc.total -= mc.sizeOf(mc.entries[0])
		last := len(mc.entries) - 1
		copy(mc.entries, mc.entries[1:])
		mc.entries[last] = nil
		mc.entries = mc.entries[:last]
	}
	return v, nil
}

// sizeOf is v's share of the budget: 0 when the memo bounds count alone.
func (mc *memo[T]) sizeOf(v *T) int {
	if mc.size == nil {
		return 0
	}
	return mc.size(v)
}

// hit returns the entry match accepts, moved to the most-recently-used
// end, or nil. The caller holds the lock.
func (mc *memo[T]) hit(match func(*T) bool) *T {
	last := len(mc.entries) - 1
	for i, v := range mc.entries {
		if match(v) {
			copy(mc.entries[i:], mc.entries[i+1:])
			mc.entries[last] = v
			return v
		}
	}
	return nil
}

// compiledCache is the memo behind compiledFor.
var compiledCache memo[compiled]

// compiledFor returns the cached compiled view of (g, m), building it
// on a miss or when g has been mutated since it was compiled. The
// returned view is shared and must be treated as read-only; concurrent
// schedulers (Compare, SpeedupCurve) deliberately share one view.
func compiledFor(g *graph.Graph, m *machine.Machine) (*compiled, error) {
	ver := g.Version()
	return compiledCache.get(func(c *compiled) bool { return c.g == g && c.m == m && c.gver == ver },
		func() (*compiled, error) { return compile(g, m) })
}

// compile builds the view. The graph must already be flat-validated.
func compile(g *graph.Graph, m *machine.Machine) (*compiled, error) {
	nodes := g.Nodes()
	n := len(nodes)
	c := &compiled{
		g: g, m: m, gver: g.Version(),
		n: n, pes: m.NumPE(),
		ids:  make([]graph.NodeID, n),
		idOf: make(map[graph.NodeID]int32, n),
		work: make([]int64, n),
		arcs: g.Arcs(),
	}
	for i, nd := range nodes {
		c.ids[i] = nd.ID
		c.idOf[nd.ID] = int32(i)
		c.work[i] = nd.Work
	}

	// rank: position of each task's NodeID in sorted order, so string
	// tie-breaks become integer compares.
	byName := make([]int32, n)
	for i := range byName {
		byName[i] = int32(i)
	}
	sortInt32(byName, func(a, b int32) bool { return c.ids[a] < c.ids[b] })
	c.rank = make([]int32, n)
	for pos, i := range byName {
		c.rank[i] = int32(pos)
	}

	// Arc lists in CSR layout: count, prefix, fill (insertion order is
	// preserved within each node, matching PredArcs/SuccArcs).
	c.predOff = make([]int32, n+1)
	c.succOff = make([]int32, n+1)
	for _, a := range c.arcs {
		c.predOff[c.idOf[a.To]+1]++
		c.succOff[c.idOf[a.From]+1]++
	}
	for i := 0; i < n; i++ {
		c.predOff[i+1] += c.predOff[i]
		c.succOff[i+1] += c.succOff[i]
	}
	c.preds = make([]carc, len(c.arcs))
	c.succs = make([]carc, len(c.arcs))
	pFill := make([]int32, n)
	sFill := make([]int32, n)
	for ai, a := range c.arcs {
		from, to := c.idOf[a.From], c.idOf[a.To]
		ca := carc{from: from, to: to, words: a.Words, aidx: int32(ai)}
		c.preds[c.predOff[to]+pFill[to]] = ca
		pFill[to]++
		c.succs[c.succOff[from]+sFill[from]] = ca
		sFill[from]++
	}

	// Distinct successors (sorted by NodeID) and distinct-predecessor
	// counts, for the ready trackers.
	c.npred = make([]int32, n)
	c.succIDOff = make([]int32, n+1)
	seen := make([]int32, n) // seen[v] == t+1: v already recorded for task t
	flat := make([]int32, 0, len(c.arcs))
	for t := int32(0); t < int32(n); t++ {
		start := len(flat)
		for _, a := range c.succArcsOf(t) {
			if seen[a.to] != t+1 {
				seen[a.to] = t + 1
				flat = append(flat, a.to)
				c.npred[a.to]++
			}
		}
		row := flat[start:]
		sortInt32(row, func(a, b int32) bool { return c.rank[a] < c.rank[b] })
		c.succIDOff[t+1] = int32(len(flat))
	}
	c.succIDs = flat

	// Topological order: Kahn's algorithm popping the lowest dense id
	// (= earliest inserted), exactly graph.TopoSort's order.
	indeg := make([]int32, n)
	copy(indeg, c.npred)
	var h denseHeap
	for i := int32(0); i < int32(n); i++ {
		if indeg[i] == 0 {
			h.push(i)
		}
	}
	c.topo = make([]int32, 0, n)
	for len(h) > 0 {
		t := h.pop()
		c.topo = append(c.topo, t)
		for _, s := range c.succIDsOf(t) {
			indeg[s]--
			if indeg[s] == 0 {
				h.push(s)
			}
		}
	}
	if len(c.topo) != n {
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("graph %q: cycle involving node %q", g.Name, c.ids[i])
			}
		}
	}

	// Static levels (the HLFET priority): work plus the highest
	// successor static level, identical to Levels.SLevel.
	c.slevel = make([]int64, n)
	for i := n - 1; i >= 0; i-- {
		t := c.topo[i]
		var s int64
		for _, a := range c.succArcsOf(t) {
			if c.slevel[a.to] > s {
				s = c.slevel[a.to]
			}
		}
		c.slevel[t] = s + c.work[t]
	}

	// Execution-time table: a column per processor only where speeds differ.
	cols := 1
	if c.hetero = m.Speeds != nil; c.hetero {
		cols = c.pes
	}
	c.execT = make([]machine.Time, 0, n*cols)
	for t := 0; t < n; t++ {
		for pe := 0; pe < cols; pe++ {
			c.execT = append(c.execT, m.ExecTime(c.work[t], pe))
		}
	}

	c.commStart, c.wordTime, c.hops = m.CommCoeffs()
	return c, nil
}

// sortInt32 is an allocation-free insertion/shell sort for the small
// per-node slices compile orders; n is tiny so asymptotics don't
// matter, but interface-based sort.Slice would allocate per call.
func sortInt32(s []int32, less func(a, b int32) bool) {
	for gap := len(s) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(s); i++ {
			for j := i; j >= gap && less(s[j], s[j-gap]); j -= gap {
				s[j], s[j-gap] = s[j-gap], s[j]
			}
		}
	}
}

// denseHeap is a binary min-heap of dense task ids (insertion
// positions).
type denseHeap []int32

func (h *denseHeap) push(x int32) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *denseHeap) pop() int32 {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l] < s[m] {
			m = l
		}
		if r < len(s) && s[r] < s[m] {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// readyTracker yields tasks whose predecessors are all placed, as an
// unordered pool. It serves the schedulers whose per-step choice is a
// total-order minimum over (task, PE) pairs (ETF, MH, Pack), where pool
// order cannot affect the selection. Tasks flagged held (nil: none)
// count as placed from the start and never become ready.
type readyTracker struct {
	c       *compiled
	held    []bool
	pending []int32
	ready   []int32
}

func newReadyTracker(c *compiled, ar *arena, held []bool) *readyTracker {
	rt := &readyTracker{c: c, held: held, pending: ar.int32s(c.n, false)}
	copy(rt.pending, c.npred)
	for t, h := range held {
		if h {
			for _, s := range c.succIDsOf(int32(t)) {
				rt.pending[s]--
			}
		}
	}
	rt.ready = ar.int32s(c.n, false)[:0]
	for i := int32(0); i < int32(c.n); i++ {
		rt.release(i)
	}
	return rt
}

// release moves t into the pool once nothing it waits for is unplaced,
// unless it is held.
func (rt *readyTracker) release(t int32) {
	if rt.pending[t] == 0 && (rt.held == nil || !rt.held[t]) {
		rt.ready = append(rt.ready, t)
	}
}

// complete marks t placed and moves newly ready tasks into the pool.
func (rt *readyTracker) complete(t int32) {
	for _, s := range rt.c.succIDsOf(t) {
		rt.pending[s]--
		rt.release(s)
	}
}

// take removes and returns ready[i] (swap-remove; pool order is not
// meaningful).
func (rt *readyTracker) take(i int) int32 {
	t := rt.ready[i]
	last := len(rt.ready) - 1
	rt.ready[i] = rt.ready[last]
	rt.ready = rt.ready[:last]
	return t
}

// readyHeap yields ready tasks highest static level first (ties by
// NodeID order), the shared priority rule of HLFET, DSH and ISH. It
// replaces their former O(n) scan per step with O(log n) heap ops.
type readyHeap struct {
	c       *compiled
	pending []int32
	items   []int32
}

func newReadyHeap(c *compiled, ar *arena) *readyHeap {
	h := &readyHeap{c: c, pending: ar.int32s(c.n, false)}
	copy(h.pending, c.npred)
	h.items = ar.int32s(c.n, false)[:0]
	for i := int32(0); i < int32(c.n); i++ {
		if h.pending[i] == 0 {
			h.push(i)
		}
	}
	return h
}

func (h *readyHeap) len() int { return len(h.items) }

// before is the static-priority order: higher slevel first, then lower
// NodeID. Total because ids are unique.
func (h *readyHeap) before(a, b int32) bool {
	if h.c.slevel[a] != h.c.slevel[b] {
		return h.c.slevel[a] > h.c.slevel[b]
	}
	return h.c.rank[a] < h.c.rank[b]
}

func (h *readyHeap) push(x int32) {
	h.items = append(h.items, x)
	s := h.items
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !h.before(s[i], s[p]) {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

// pop removes and returns the highest-priority ready task.
func (h *readyHeap) pop() int32 {
	s := h.items
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	h.items = s[:last]
	s = h.items
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && h.before(s[l], s[m]) {
			m = l
		}
		if r < len(s) && h.before(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// complete marks t placed and pushes newly ready tasks.
func (h *readyHeap) complete(t int32) {
	for _, s := range h.c.succIDsOf(t) {
		h.pending[s]--
		if h.pending[s] == 0 {
			h.push(s)
		}
	}
}
