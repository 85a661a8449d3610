package sched

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Pack implements grain packing by linear clustering (Kim & Browne's
// linear clustering as used in Kruatrachue's grain-packing work):
//
//  1. repeatedly peel off the current critical path of the yet-
//     unclustered subgraph and make it one grain (communication inside
//     a grain becomes free because its tasks share a processor);
//  2. assign grains to processors longest-processing-time first, each
//     grain to the least-loaded processor;
//  3. fix the placement and assign start times with the ETF rule
//     restricted to the chosen processors.
type Pack struct{}

// Name implements Scheduler.
func (Pack) Name() string { return "pack" }

// Schedule implements Scheduler.
func (Pack) Schedule(g *graph.Graph, m *machine.Machine) (*Schedule, error) {
	b, err := newBuilder(g, m)
	if err != nil {
		return nil, err
	}
	defer b.release()
	clusters, err := linearClusters(g)
	if err != nil {
		return nil, err
	}
	assign := packClusters(g, m, clusters)
	return scheduleFixed(b, assign, "pack")
}

// linearClusters peels critical paths off the graph until every task
// belongs to exactly one cluster. Returned clusters are ordered by
// decreasing creation priority (first cluster = global critical path).
func linearClusters(g *graph.Graph) ([][]graph.NodeID, error) {
	// One topological sort serves every peel; the subgraph only shrinks.
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	remaining := map[graph.NodeID]bool{}
	for _, n := range g.Nodes() {
		remaining[n.ID] = true
	}
	var clusters [][]graph.NodeID
	for len(remaining) > 0 {
		path := criticalPathWithin(g, order, remaining)
		if len(path) == 0 {
			// Cannot happen on a DAG with remaining nodes; guard anyway.
			return nil, fmt.Errorf("sched: linear clustering stalled with %d tasks left", len(remaining))
		}
		clusters = append(clusters, path)
		for _, id := range path {
			delete(remaining, id)
		}
	}
	return clusters, nil
}

// criticalPathWithin finds the longest work+words path restricted to
// the given node subset. order must be a topological order of g.
func criticalPathWithin(g *graph.Graph, order []graph.NodeID, within map[graph.NodeID]bool) []graph.NodeID {
	blevel := map[graph.NodeID]int64{}
	next := map[graph.NodeID]graph.NodeID{}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		if !within[id] {
			continue
		}
		var best int64
		var bestNext graph.NodeID
		for _, a := range g.SuccArcs(id) {
			if !within[a.To] {
				continue
			}
			if c := blevel[a.To] + a.Words; c > best || (c == best && bestNext == "") {
				best = c
				bestNext = a.To
			}
		}
		blevel[id] = best + g.Node(id).Work
		if bestNext != "" {
			next[id] = bestNext
		}
	}
	var start graph.NodeID
	var startLen int64 = -1
	for _, id := range order {
		if !within[id] {
			continue
		}
		// Only start from subset-local sources for true linear chains.
		hasPredWithin := false
		for _, a := range g.PredArcs(id) {
			if within[a.From] {
				hasPredWithin = true
				break
			}
		}
		if hasPredWithin {
			continue
		}
		if blevel[id] > startLen {
			startLen = blevel[id]
			start = id
		}
	}
	if startLen < 0 {
		return nil
	}
	var path []graph.NodeID
	for cur := start; ; {
		path = append(path, cur)
		nx, ok := next[cur]
		if !ok {
			break
		}
		cur = nx
	}
	return path
}

// packClusters maps clusters onto processors: largest total work first,
// each to the currently least-loaded processor.
func packClusters(g *graph.Graph, m *machine.Machine, clusters [][]graph.NodeID) map[graph.NodeID]int {
	type grain struct {
		idx  int
		work int64
	}
	grains := make([]grain, len(clusters))
	for i, c := range clusters {
		var w int64
		for _, id := range c {
			w += g.Node(id).Work
		}
		grains[i] = grain{idx: i, work: w}
	}
	sort.Slice(grains, func(i, j int) bool {
		if grains[i].work != grains[j].work {
			return grains[i].work > grains[j].work
		}
		return grains[i].idx < grains[j].idx
	})
	load := make([]int64, m.NumPE())
	assign := map[graph.NodeID]int{}
	for _, gr := range grains {
		pe := 0
		for p := 1; p < m.NumPE(); p++ {
			if load[p] < load[pe] {
				pe = p
			}
		}
		load[pe] += gr.work
		for _, id := range clusters[gr.idx] {
			assign[id] = pe
		}
	}
	return assign
}

// scheduleFixed assigns start times when each task's processor is
// already decided: repeatedly start the ready task that can begin
// earliest on its assigned processor.
func scheduleFixed(b *builder, assign map[graph.NodeID]int, alg string) (*Schedule, error) {
	c := b.c
	pa := make([]int, c.n)
	for id, pe := range assign {
		pa[c.idOf[id]] = pe
	}
	rt := newReadyTracker(c, b.ar, nil)
	for len(rt.ready) > 0 {
		bestIdx := -1
		bestT := int32(-1)
		var bestStart machine.Time
		for i, t := range rt.ready {
			st, err := b.est(t, pa[t])
			if err != nil {
				return nil, err
			}
			better := false
			switch {
			case bestIdx < 0:
				better = true
			case st != bestStart:
				better = st < bestStart
			case c.slevel[t] != c.slevel[bestT]:
				better = c.slevel[t] > c.slevel[bestT]
			default:
				better = c.rank[t] < c.rank[bestT]
			}
			if better {
				bestIdx, bestT, bestStart = i, t, st
			}
		}
		t := rt.take(bestIdx)
		if _, err := b.place(t, pa[t], bestStart, false); err != nil {
			return nil, err
		}
		rt.complete(t)
	}
	return b.finish(alg), nil
}
