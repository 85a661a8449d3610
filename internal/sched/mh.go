package sched

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/machine"
)

// MH is the mapping heuristic of El-Rewini & Lewis ("Scheduling
// Parallel Program Tasks onto Arbitrary Target Machines", JPDC 1990) —
// the scheduler behind PPSE, which Banger reuses. Like ETF it greedily
// chooses the (ready task, processor) pair that can start earliest, but
// its communication model routes every message hop by hop over the
// interconnection network and serialises messages that contend for the
// same link, so topology (Figure 2) genuinely shapes the schedule.
type MH struct{}

// Name implements Scheduler.
func (MH) Name() string { return "mh" }

// mhNet tracks per-link availability for the contention model, over
// the topology's shared route tables. Its own state — link free times
// and destination epochs — is carved from the schedule's arena, so
// steady-state set-up allocates nothing.
//
// It also maintains the state behind MH's incremental routed-arrival
// cache. Because routing is destination-based (the next hop out of u
// depends only on u and the final destination q), the directed link
// u->v lies on a route toward q iff NextHop(u, q) == v; the per-link
// dest lists precompute exactly the destination PEs whose deliveries
// can traverse each link. When a commit actually advances a link's free
// time, destEpoch of those destinations is bumped, invalidating only
// the cached arrivals that could observe the change.
type mhNet struct {
	*mhRoutes
	startup  machine.Time
	wordTime machine.Time
	linkFree []machine.Time // per link id

	epoch     uint64   // bumped once per commit phase; starts at mhFirstEpoch
	destEpoch []uint64 // per PE: epoch of the last commit affecting it
}

// mhRoutes is the half of MH's network model that depends on the
// topology alone: every route and link id, built once per topology and
// then only read, so the estimation loops read flat arrays and never
// touch a map. Schedules on one *Topology share one mhRoutes through
// mhRouteMemo; a topology read from a document is interned (one per
// spec), so every request naming that spec shares it too.
type mhRoutes struct {
	topo       *machine.Topology
	linkTo     []int32 // per link id: the PE the link leads to
	routeOff   []int32 // flat p*pes+q -> range into routeLinks
	routeLinks []int32 // concatenated link-id sequences
	destOff    []int32 // per link id -> range into destFlat
	destFlat   []int32 // concatenated destination PEs per link
}

// mhRouteMemo holds the route tables of the topologies most recently
// scheduled on, bounded by bytes as well as by count: a table is 2.1 MB
// for ring:128 but 1.4 GB for a 1024-PE chain. Past mhRouteBudget the
// least recently used tables go, so what it pins is the budget or the
// one newest table, whichever is larger — never several large ones.
var mhRouteMemo = memo[mhRoutes]{budget: MHRouteBudget, size: func(n *mhRoutes) int {
	return 4 * (len(n.linkTo) + len(n.routeOff) + len(n.routeLinks) + len(n.destOff) + len(n.destFlat))
}}

// MHRouteBudget is mhRouteMemo's byte budget. MH builds tables of any
// size; a server refuses MH where MHRouteBytes exceeds it.
const MHRouteBudget = 64 << 20

// MHRouteBytes is what mhRouteMemo counts for topo's route tables,
// from the topology's hop sum alone: 4 bytes per hop of every route
// ((P³−P)/3 hops on a P-chain), plus a few per link and per pair of
// processors.
func MHRouteBytes(topo *machine.Topology) int {
	P := topo.N
	return 4 * (4*topo.NumLinks() + 2 + P*P + P*(P-1) + topo.RouteHops())
}

// Stamp values below mhFirstEpoch are reserved: mhStampPartial marks an
// arrival-cache entry that holds only a lower bound — the contention-
// free floor it starts at, or a bailed-out partial route maximum. It is
// permanently stale.
const (
	mhStampPartial = 0
	mhFirstEpoch   = 1
)

// newMHNet returns a fresh contention state over m's route tables.
func newMHNet(m *machine.Machine, ar *arena) (*mhNet, error) {
	r, err := mhRouteMemo.get(func(r *mhRoutes) bool { return r.topo == m.Topo },
		func() (*mhRoutes, error) { return newMHRoutes(m.Topo, ar) })
	if err != nil {
		return nil, err
	}
	return &mhNet{mhRoutes: r, startup: m.Params.MsgStartup, wordTime: m.Params.WordTime,
		linkFree: ar.times(len(r.linkTo), true), epoch: mhFirstEpoch, destEpoch: ar.uint64s(m.NumPE(), true)}, nil
}

// newMHRoutes numbers the directed links and flattens every route
// straight from the topology's next-hop table; only its scratch comes
// from the arena. The link u->v has id linkOff[u] + (index of v in
// Neighbors(u)); numbering doesn't influence schedules (ids only group
// contention state). The routes are stored flat rather than walked hop
// by hop in the scan because the scan reads them millions of times: a
// sequential slice there beats two dependent loads per hop severalfold.
func newMHRoutes(topo *machine.Topology, ar *arena) (*mhRoutes, error) {
	P := topo.N
	n := &mhRoutes{topo: topo}
	linkOff := ar.int32s(P+1, false)
	linkOff[0] = 0
	for u := 0; u < P; u++ {
		linkOff[u+1] = linkOff[u] + int32(topo.Degree(u))
	}
	L := int(linkOff[P])
	n.linkTo = make([]int32, L)
	n.destOff = make([]int32, L+1)
	n.routeOff = make([]int32, P*P+1)

	// Pass 1: outLink[u*P+q] is the link a message at u bound for q
	// leaves on. Count each link's destinations (into destOff[l+1]) and
	// sum the hop counts for the exact length of routeLinks.
	outLink := ar.int32s(P*P, false)
	linkOf := ar.int32s(P, false) // per neighbour v of the current u: id of u->v
	hops := 0
	for u := 0; u < P; u++ {
		for i, v := range topo.Neighbors(u) {
			l := linkOff[u] + int32(i)
			linkOf[v] = l
			n.linkTo[l] = int32(v)
		}
		for q := 0; q < P; q++ {
			if q != u {
				v := topo.NextHop(u, q)
				if v < 0 {
					return nil, fmt.Errorf("sched: mh: processor %d cannot reach processor %d on %s", u, q, topo.Name)
				}
				l := linkOf[v]
				outLink[u*P+q] = l
				n.destOff[l+1]++
				hops += topo.Hops(u, q)
			}
			if hops > math.MaxInt32 {
				return nil, fmt.Errorf("sched: mh: %s is too large: its routes total more than %d hops", topo.Name, math.MaxInt32)
			}
			n.routeOff[u*P+q+1] = int32(hops)
		}
	}
	for l := 0; l < L; l++ {
		n.destOff[l+1] += n.destOff[l]
	}

	// Pass 2, destination by destination: fill the destination lists
	// (each link's comes out ascending) and write every route. A route
	// is its first link followed by the route from that link's far end,
	// so each is one copy once that neighbour's is written: done[u] ==
	// q+1 says u's route to q is, and a source that finds otherwise
	// walks toward q stacking PEs until it meets one that is done, then
	// unwinds. Following outLink hop by hop for every pair instead is a
	// dependent load per hop, five times slower on ring:128.
	n.destFlat = make([]int32, P*(P-1))
	n.routeLinks = make([]int32, hops)
	fill := ar.int32s(L, false)
	copy(fill, n.destOff)
	done := ar.int32s(P, true)
	stack := ar.int32s(P, false)
	for q := 0; q < P; q++ {
		mark := int32(q) + 1
		done[q] = mark // the empty route
		for p := 0; p < P; p++ {
			if p == q {
				continue
			}
			first := outLink[p*P+q]
			n.destFlat[fill[first]] = int32(q)
			fill[first]++
			sp := 0
			for u := p; done[u] != mark; u = int(n.linkTo[outLink[u*P+q]]) {
				stack[sp] = int32(u)
				sp++
			}
			for sp > 0 {
				sp--
				u := int(stack[sp])
				l := outLink[u*P+q]
				r := n.route(u, q)
				r[0] = l
				copy(r[1:], n.route(int(n.linkTo[l]), q))
				done[u] = mark
			}
		}
	}
	return n, nil
}

// route returns the link-id sequence of the shortest path from p to q
// (empty when p == q).
func (n *mhRoutes) route(p, q int) []int32 {
	i := p*n.topo.N + q
	return n.routeLinks[n.routeOff[i]:n.routeOff[i+1]]
}

// commitDeliver routes a message of words words, ready at the source at
// send time, from p to q over the shortest path with store-and-forward
// per-hop contention, returns its arrival and books it: each traversed
// link's free time is advanced to the hop's completion when later than
// the current value, and the destinations routed over a changed link
// have their epoch bumped so stale cached arrivals are recomputed.
// Co-located delivery is free and immediate and books nothing.
func (n *mhNet) commitDeliver(words int64, send machine.Time, p, q int) machine.Time {
	if p == q {
		return send
	}
	if words < 0 {
		words = 0
	}
	at := send + n.startup
	hop := machine.Time(words) * n.wordTime
	for _, l := range n.route(p, q) {
		if f := n.linkFree[l]; f > at {
			at = f
		}
		at += hop
		if at > n.linkFree[l] {
			n.linkFree[l] = at
			for _, d := range n.destFlat[n.destOff[l]:n.destOff[l+1]] {
				n.destEpoch[d] = n.epoch
			}
		}
	}
	return at
}

// Deliver returns the rule by which s's messages arrive: given a
// message of words words sent at send from processor p, it returns when
// the message reaches processor q. For an MH schedule it is
// commitDeliver over fresh links, so calls made in MH's commit order —
// consumers in Slots order, each one's messages in Msgs order —
// reproduce its link contention; for every other schedule it is send +
// CommTime, and the call order does not matter.
func (s *Schedule) Deliver() (func(words int64, send machine.Time, p, q int) machine.Time, error) {
	if s.Algorithm == (MH{}).Name() {
		net, err := newMHNet(s.Machine, new(arena))
		if err != nil {
			return nil, err
		}
		return net.commitDeliver, nil
	}
	return func(words int64, send machine.Time, p, q int) machine.Time {
		return send + s.Machine.CommTime(words, p, q)
	}, nil
}

// feed is one incoming message of the task being committed.
type feed struct {
	a    carc
	src  Slot
	send machine.Time
}

// sortFeeds orders feeds by (send time, producer rank) with a stable
// insertion sort: feed lists are predecessor lists (a handful of
// entries), and interface-based sorting here was most of MH's
// allocation bill — three allocations per scheduling step.
func sortFeeds(feeds []feed, rank []int32) {
	for i := 1; i < len(feeds); i++ {
		f := feeds[i]
		j := i - 1
		for j >= 0 && (f.send < feeds[j].send ||
			(f.send == feeds[j].send && rank[f.a.from] < rank[feeds[j].a.from])) {
			feeds[j+1] = feeds[j]
			j--
		}
		feeds[j+1] = f
	}
}

// Schedule implements Scheduler.
func (MH) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	c := b.c
	net, err := newMHNet(m, b.ar)
	if err != nil {
		return nil, err
	}
	rt := newReadyTracker(c, b.ar, nil)

	// Routed data-arrival cache: arr[t*P+pe] is the max over t's
	// predecessor arcs of the best copy's routed arrival, stamped with
	// the net epoch it was computed at. An entry stays valid until a
	// commit advances a link on some route toward pe (MH never
	// duplicates, so producer copies are fixed once t is ready);
	// procFree is applied live and needs no invalidation. An entry
	// stamped mhStampPartial holds a lower bound instead: each row starts
	// at its contention-free floor (set as the task becomes ready; an
	// entry task's is the zero it is carved with), raised by any
	// bailed-out partial maximum since.
	arr := b.ar.times(c.n*c.pes, true)
	stamp := b.ar.uint64s(c.n*c.pes, true)

	// Monotone pruning bounds. Link free times and procFree only
	// advance and producer finishes are fixed, so routed arrivals —
	// and with them every (t,pe) finish — are nondecreasing over
	// time. That makes two lower bounds available without recomputing
	// routes: a stale cached arrival (bounds the current arrival from
	// below), and lbFin[t], the task's best finish computed at any
	// earlier step. Candidates whose bound is strictly worse than the
	// running best can't win (the candidate order is strict on finish
	// first) and are skipped; bounds that tie must be recomputed so
	// tie-breaks see exact values.
	lbFin := b.ar.times(c.n, true)

	// MH never duplicates, so each placed task has exactly one copy;
	// srcPE/srcFin are the flat fast path to it, avoiding the copies
	// slice-of-slices indirection in the scan. They are written as a
	// task is placed and read only for a ready task's producers.
	srcPE := b.ar.int32s(c.n, false)
	srcFin := b.ar.times(c.n, false)

	// evalTask evaluates ready index i exactly (updating the arrival
	// cache and lbFin) under the pruning bound and returns the task's
	// best candidate. Candidate orders are strict, so pruning with any
	// valid bound never changes which candidate wins a scan.
	evalTask := func(i int, bound cand) cand {
		t := rt.ready[i]
		taskLB := machine.Time(math.MaxInt64)
		tbest := cand{}
		preds := c.predArcsOf(t)
		for pe := 0; pe < c.pes; pe++ {
			ci := int(t)*c.pes + pe
			ex := c.exec(t, pe)
			pf := b.procFree[pe]
			// A candidate is beaten when it is strictly worse than the
			// cross-task bound (ties there must be recomputed for the
			// slevel/rank tie-breaks) or no better than this task's own
			// running best (a tie loses to the earlier PE).
			beaten := func(fin machine.Time) bool {
				return (bound.ok && fin > bound.fin) || (tbest.ok && fin >= tbest.fin)
			}
			if st := stamp[ci]; st < mhFirstEpoch || st < net.destEpoch[pe] {
				if lb := max(arr[ci], pf) + ex; beaten(lb) {
					taskLB = min(taskLB, lb)
					continue
				}
				var a machine.Time
				complete := true
				for _, pa := range preds {
					sp := srcPE[pa.from]
					// commitDeliver without the booking, hand-rolled on
					// the flat single-copy arrays: this loop is the
					// profile's hottest path.
					at := srcFin[pa.from]
					if int(sp) != pe {
						w := pa.words
						if w < 0 {
							w = 0
						}
						at += net.startup
						hop := machine.Time(w) * net.wordTime
						base := int(sp)*c.pes + pe
						for _, l := range net.routeLinks[net.routeOff[base]:net.routeOff[base+1]] {
							if f := net.linkFree[l]; f > at {
								at = f
							}
							at += hop
						}
					}
					if at > a {
						a = at
					}
					// Bail as soon as the partial max already loses:
					// the true arrival is >= a, so the candidate is
					// beaten whatever the remaining predecessors add.
					// The partial max is still a valid monotone lower
					// bound — keep it for the next scan's skip check.
					if beaten(a + ex) {
						complete = false
						break
					}
				}
				if !complete {
					arr[ci] = max(arr[ci], a)
					stamp[ci] = mhStampPartial
					taskLB = min(taskLB, max(arr[ci], pf)+ex)
					continue
				}
				arr[ci] = a
				stamp[ci] = net.epoch
			}
			start := arr[ci]
			if pf > start {
				start = pf
			}
			fin := start + ex
			if fin < taskLB {
				taskLB = fin
			}
			// Within one task slevel and rank are fixed, so the strict
			// candidate order reduces to (fin, pe); pe ascends, so
			// strictly-smaller fin is the whole test.
			if !tbest.ok || fin < tbest.fin {
				tbest = cand{ok: true, t: t, idx: i, pe: pe, st: start, fin: fin}
			}
		}
		lbFin[t] = taskLB
		return tbest
	}

	var feeds []feed
	for len(rt.ready) > 0 {
		// Each step's scan starts from a seed candidate: the task with
		// the smallest finish lower bound, evaluated exactly first. The
		// scan then opens with a near-optimal bound instead of
		// discovering one midway, which is what makes the lbFin skip and
		// the stale-entry skip bite.
		seedIdx := 0
		for i, t := range rt.ready {
			if lbFin[t] < lbFin[rt.ready[seedIdx]] {
				seedIdx = i
			}
		}
		best := evalTask(seedIdx, cand{})
		for i, t := range rt.ready {
			if i == seedIdx || (best.ok && lbFin[t] > best.fin) {
				continue
			}
			if tbest := evalTask(i, best); c.betterCand(best, tbest) {
				best = tbest
			}
		}
		t := rt.take(best.idx)
		bestPE := best.pe

		// Commit: route each incoming message in a deterministic order
		// (messages from earlier-finishing copies first), booking links.
		// Bump the epoch first so the bookings invalidate exactly the
		// cached arrivals of destinations they can affect.
		net.epoch++
		feeds = feeds[:0]
		for _, pa := range c.predArcsOf(t) {
			src := b.copies[pa.from][0] // MH never duplicates: the one copy
			feeds = append(feeds, feed{a: pa, src: src, send: src.Finish})
		}
		sortFeeds(feeds, c.rank)
		start := b.procFree[bestPE]
		for _, f := range feeds {
			at := net.commitDeliver(f.a.words, f.src.Finish, f.src.PE, bestPE)
			if at > start {
				start = at
			}
			if f.src.PE != bestPE {
				b.stub(f.a.aidx, t, bestPE, f.src, at)
			}
		}
		// Committed contention may push the start past the estimate
		// (other placements between estimate and commit); never earlier.
		sl := Slot{Task: c.ids[t], PE: bestPE, Start: start, Finish: start + c.exec(t, bestPE)}
		b.commitSlot(t, sl)
		srcPE[t], srcFin[t] = int32(bestPE), sl.Finish
		// A task's arrival row starts, as it becomes ready, at what the
		// routed arrivals would be on idle links: its contention-free
		// data-ready row. Each hop of a route only adds time, so this
		// floor never exceeds the routed arrival, and it is fixed from
		// here on: the stale-bound skip in evalTask then rules out far
		// candidates without walking a route.
		was := len(rt.ready)
		rt.complete(t)
		for _, s := range rt.ready[was:] {
			row, err := b.dataReadyRow(s)
			if err != nil {
				return nil, err
			}
			copy(arr[int(s)*c.pes:], row)
		}
	}
	return b.finish("mh"), nil
}
