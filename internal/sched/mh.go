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

// mhNet tracks per-link availability for the contention model. Every
// route and link id is built eagerly up front — the estimation loops
// then only read flat arrays and never touch a map. All of its
// tables are carved from the schedule's arena, so steady-state set-up
// allocates nothing.
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
	pes      int
	startup  machine.Time
	wordTime machine.Time

	linkTo     []int32        // per link id: the PE the link leads to
	routeOff   []int32        // flat p*pes+q -> range into routeLinks
	routeLinks []int32        // concatenated link-id sequences
	linkFree   []machine.Time // per link id
	destOff    []int32        // per link id -> range into destFlat
	destFlat   []int32        // concatenated destination PEs per link

	epoch     uint64   // bumped once per commit phase; starts at mhFirstEpoch
	destEpoch []uint64 // per PE: epoch of the last commit affecting it
}

// Stamp values below mhFirstEpoch are reserved: mhStampNever marks an
// arrival-cache entry that was never computed, mhStampPartial one that
// holds a partial (bailed-out) lower bound. Both are permanently stale.
const (
	mhStampNever   = 0
	mhStampPartial = 1
	mhFirstEpoch   = 2
)

// newMHNet numbers the directed links and flattens every route straight
// from the topology's next-hop table. The link u->v has id linkOff[u] +
// (index of v in Neighbors(u)); numbering doesn't influence schedules
// (ids only group contention state). The routes are stored flat rather
// than walked hop by hop in the scan because the scan reads them
// millions of times: a sequential slice there beats two dependent
// loads per hop severalfold.
func newMHNet(m *machine.Machine, ar *arena) (*mhNet, error) {
	P := m.NumPE()
	topo := m.Topo
	n := &mhNet{
		pes:       P,
		startup:   m.Params.MsgStartup,
		wordTime:  m.Params.WordTime,
		epoch:     mhFirstEpoch,
		destEpoch: ar.uint64s(P, true),
	}
	linkOff := ar.int32s(P+1, false)
	linkOff[0] = 0
	for u := 0; u < P; u++ {
		linkOff[u+1] = linkOff[u] + int32(topo.Degree(u))
	}
	L := int(linkOff[P])
	n.linkTo = ar.int32s(L, false)
	n.linkFree = ar.times(L, true)
	n.destOff = ar.int32s(L+1, true)
	n.routeOff = ar.int32s(P*P+1, false)
	n.routeOff[0] = 0

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
	n.destFlat = ar.int32s(P*(P-1), false)
	n.routeLinks = ar.int32s(hops, false)
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
func (n *mhNet) route(p, q int) []int32 {
	i := p*n.pes + q
	return n.routeLinks[n.routeOff[i]:n.routeOff[i+1]]
}

// deliver computes when a message of words words, ready at the source
// at send time, arrives at processor q when routed from p over the
// shortest path with store-and-forward per-hop contention, without
// booking anything. Co-located delivery is free and immediate.
func (n *mhNet) deliver(words int64, send machine.Time, p, q int) machine.Time {
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
	}
	return at
}

// commitDeliver is deliver plus booking: each traversed link's free
// time is advanced to the hop's completion when later than the current
// value, and the destinations routed over a changed link have their
// epoch bumped so stale cached arrivals are recomputed.
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
	// the net epoch it was computed at (mhStampNever = never computed,
	// mhStampPartial = holds a bailed-out partial lower bound). An entry
	// stays valid until a commit advances a link on some route toward pe
	// (MH never duplicates, so producer copies are fixed once t is
	// ready); procFree is applied live and needs no invalidation.
	arr := b.ar.times(c.n*c.pes, false)
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
	// srcPE/srcFin are the flat fast path to it (-1 = not placed yet),
	// avoiding the copies slice-of-slices indirection in the scan.
	srcPE := b.ar.int32s(c.n, false)
	srcFin := b.ar.times(c.n, false)
	for i := range srcPE {
		srcPE[i] = -1
	}

	// evalTask evaluates ready index i exactly (updating the arrival
	// cache and lbFin) under the pruning bound and returns the task's
	// best candidate. Candidate orders are strict, so pruning with any
	// valid bound never changes which candidate wins a scan.
	evalTask := func(i int, bound cand) (cand, error) {
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
				if st != mhStampNever {
					lb := arr[ci]
					if pf > lb {
						lb = pf
					}
					if beaten(lb + ex) {
						if lb+ex < taskLB {
							taskLB = lb + ex
						}
						continue
					}
				}
				var a machine.Time
				complete := true
				for _, pa := range preds {
					sp := srcPE[pa.from]
					if sp < 0 {
						return cand{}, errProducerNotPlaced(c.arcs[pa.aidx])
					}
					// deliver, hand-rolled on the flat single-copy
					// arrays: this loop is the profile's hottest path.
					at := srcFin[pa.from]
					if int(sp) != pe {
						w := pa.words
						if w < 0 {
							w = 0
						}
						at += net.startup
						hop := machine.Time(w) * net.wordTime
						base := int(sp)*net.pes + pe
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
					if st == mhStampNever || a > arr[ci] {
						arr[ci] = a
					}
					stamp[ci] = mhStampPartial
					lb := a
					if pf > lb {
						lb = pf
					}
					if lb+ex < taskLB {
						taskLB = lb + ex
					}
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
		return tbest, nil
	}

	// Message stubs: committed cross-PE messages are recorded as
	// pointer-free (arc, recv) pairs in the arena and materialised into
	// []Msg once at the end. Building the pointerful Msg list
	// incrementally would keep a multi-megabyte, GC-scanned, write-
	// barriered buffer live through the whole construction.
	stubArc := b.ar.int32s(len(c.arcs), false)[:0]
	stubFrom := b.ar.int32s(len(c.arcs), false)[:0]
	stubTo := b.ar.int32s(len(c.arcs), false)[:0]
	stubRecv := b.ar.times(len(c.arcs), false)[:0]

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
		best, err := evalTask(seedIdx, cand{})
		if err != nil {
			return nil, err
		}
		for i, t := range rt.ready {
			if i == seedIdx || (best.ok && lbFin[t] > best.fin) {
				continue
			}
			tbest, err := evalTask(i, best)
			if err != nil {
				return nil, err
			}
			if c.betterCand(best, tbest) {
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
			cps := b.copies[pa.from]
			bsrc := cps[0]
			bestAt := net.deliver(pa.words, cps[0].Finish, cps[0].PE, bestPE)
			for _, cp := range cps[1:] {
				if at := net.deliver(pa.words, cp.Finish, cp.PE, bestPE); at < bestAt || (at == bestAt && cp.PE < bsrc.PE) {
					bestAt, bsrc = at, cp
				}
			}
			feeds = append(feeds, feed{a: pa, src: bsrc, send: bsrc.Finish})
		}
		sortFeeds(feeds, c.rank)
		start := b.procFree[bestPE]
		for _, f := range feeds {
			at := net.commitDeliver(f.a.words, f.src.Finish, f.src.PE, bestPE)
			if at > start {
				start = at
			}
			if f.src.PE != bestPE {
				stubArc = append(stubArc, f.a.aidx)
				stubFrom = append(stubFrom, f.a.from)
				stubTo = append(stubTo, t)
				stubRecv = append(stubRecv, at)
			}
		}
		// Committed contention may push the start past the estimate
		// (other placements between estimate and commit); never earlier.
		sl := Slot{Task: c.ids[t], PE: bestPE, Start: start, Finish: start + c.exec(t, bestPE)}
		b.commitSlot(t, sl)
		srcPE[t], srcFin[t] = int32(bestPE), sl.Finish
		rt.complete(t)
	}
	// Materialise the message list, exactly sized, in commit order. By
	// now every task is placed, so producer/consumer PEs and the send
	// times read straight off the flat arrays.
	b.msgs = make([]Msg, len(stubArc))
	for i, ai := range stubArc {
		oa := &c.arcs[ai]
		from, to := stubFrom[i], stubTo[i]
		fp, tp := int(srcPE[from]), int(srcPE[to])
		b.msgs[i] = Msg{
			Var: oa.Var, From: oa.From, To: c.ids[to],
			FromPE: fp, ToPE: tp, Words: oa.Words,
			Send: srcFin[from], Recv: stubRecv[i], Hops: m.Topo.Hops(fp, tp),
		}
	}
	return b.finish("mh"), nil
}
