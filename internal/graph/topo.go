package graph

import (
	"fmt"
	"sort"
)

// TopoSort returns the node ids in a topological order (Kahn's
// algorithm, stable with respect to insertion order: among ready nodes
// the earliest-inserted one is emitted first). It returns an error
// naming a node on a cycle if the graph is cyclic.
func (g *Graph) TopoSort() ([]NodeID, error) {
	n := len(g.nodes)
	pos := make(map[NodeID]int, n)
	for i, nd := range g.nodes {
		pos[nd.ID] = i
	}
	indeg := make([]int, n)
	for i, nd := range g.nodes {
		indeg[i] = len(nd.pred)
	}
	// Min-heap of insertion positions: pops the earliest-inserted ready
	// node in O(log n) instead of a linear scan of the ready pool.
	ready := make(minIntHeap, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(i)
		}
	}
	order := make([]NodeID, 0, n)
	for len(ready) > 0 {
		nd := g.nodes[ready.pop()]
		order = append(order, nd.ID)
		for _, a := range nd.succ {
			ti := pos[a.To]
			indeg[ti]--
			if indeg[ti] == 0 {
				ready.push(ti)
			}
		}
	}
	if len(order) != n {
		for i, nd := range g.nodes {
			if indeg[i] > 0 {
				return nil, fmt.Errorf("graph %q: cycle involving node %q", g.Name, nd.ID)
			}
		}
	}
	return order, nil
}

// minIntHeap is a plain binary min-heap over ints, avoiding the
// interface boxing of container/heap on this hot path.
type minIntHeap []int

func (h *minIntHeap) push(x int) {
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

func (h *minIntHeap) pop() int {
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

// Levels holds the classic list-scheduling priority metrics of a task
// graph, computed with communication included (arc weight = Words) but
// in abstract units: work counts for nodes, word counts for arcs. A
// scheduler converts these to time with its machine model; for
// prioritisation the abstract values suffice.
type Levels struct {
	// TLevel[n] is the length of the longest path from any entry node
	// to n, excluding n's own work ("earliest possible start" in
	// abstract units, also called the top level).
	TLevel map[NodeID]int64
	// BLevel[n] is the length of the longest path from n to any exit
	// node, including n's own work (the bottom level).
	BLevel map[NodeID]int64
	// SLevel[n] is the static level: BLevel computed ignoring arc
	// weights (the HLFET priority of Adam, Chandy & Dickson).
	SLevel map[NodeID]int64
	// Order is a topological order of the graph.
	Order []NodeID
}

// ComputeLevels computes t-levels, b-levels and static levels for the
// graph. commScale multiplies arc Words when mixing communication into
// path lengths; pass 1 for the abstract default or a machine-derived
// ratio to bias priorities toward a particular cost model.
func (g *Graph) ComputeLevels(commScale int64) (*Levels, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	lv := &Levels{
		TLevel: make(map[NodeID]int64, len(order)),
		BLevel: make(map[NodeID]int64, len(order)),
		SLevel: make(map[NodeID]int64, len(order)),
		Order:  order,
	}
	for _, id := range order {
		var t int64
		for _, a := range g.PredArcs(id) {
			p := g.index[a.From]
			cand := lv.TLevel[a.From] + p.Work + a.Words*commScale
			if cand > t {
				t = cand
			}
		}
		lv.TLevel[id] = t
	}
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		n := g.index[id]
		var b, s int64
		for _, a := range g.SuccArcs(id) {
			if c := lv.BLevel[a.To] + a.Words*commScale; c > b {
				b = c
			}
			if c := lv.SLevel[a.To]; c > s {
				s = c
			}
		}
		lv.BLevel[id] = b + n.Work
		lv.SLevel[id] = s + n.Work
	}
	return lv, nil
}

// CriticalPath returns the nodes on a longest entry-to-exit path
// (counting node work plus commScale-weighted arc words) and its
// length. For an empty graph it returns nil, 0.
func (g *Graph) CriticalPath(commScale int64) ([]NodeID, int64, error) {
	lv, err := g.ComputeLevels(commScale)
	if err != nil {
		return nil, 0, err
	}
	if len(lv.Order) == 0 {
		return nil, 0, nil
	}
	// The critical path length is max over nodes of TLevel+BLevel;
	// start from an entry node achieving it and walk greedily.
	var best NodeID
	var bestLen int64 = -1
	for _, id := range lv.Order {
		if len(g.PredArcs(id)) > 0 {
			continue
		}
		if l := lv.BLevel[id]; l > bestLen {
			bestLen = l
			best = id
		}
	}
	path := []NodeID{best}
	cur := best
	for {
		var next NodeID
		found := false
		for _, a := range g.SuccArcs(cur) {
			want := lv.BLevel[cur] - g.index[cur].Work - a.Words*commScale
			if lv.BLevel[a.To] == want && want >= 0 {
				next = a.To
				found = true
				break
			}
		}
		if !found {
			break
		}
		path = append(path, next)
		cur = next
	}
	return path, bestLen, nil
}

// Width returns the maximum antichain size as approximated by the
// largest number of nodes sharing a depth level (longest-path depth,
// unit arc weights). It bounds attainable parallelism.
func (g *Graph) Width() (int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	depth := make(map[NodeID]int, len(order))
	for _, id := range order {
		d := 0
		for _, a := range g.PredArcs(id) {
			if depth[a.From]+1 > d {
				d = depth[a.From] + 1
			}
		}
		depth[id] = d
	}
	count := map[int]int{}
	w := 0
	for _, d := range depth {
		count[d]++
		if count[d] > w {
			w = count[d]
		}
	}
	return w, nil
}

// Depth returns the number of nodes on the longest path (unit weights),
// i.e. the minimum number of sequential steps.
func (g *Graph) Depth() (int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	depth := make(map[NodeID]int, len(order))
	max := 0
	for _, id := range order {
		d := 1
		for _, a := range g.PredArcs(id) {
			if depth[a.From]+1 > d {
				d = depth[a.From] + 1
			}
		}
		depth[id] = d
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Ancestors returns all transitive predecessors of id, sorted.
func (g *Graph) Ancestors(id NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var walk func(NodeID)
	walk = func(n NodeID) {
		for _, a := range g.PredArcs(n) {
			if !seen[a.From] {
				seen[a.From] = true
				walk(a.From)
			}
		}
	}
	walk(id)
	out := make([]NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Descendants returns all transitive successors of id, sorted.
func (g *Graph) Descendants(id NodeID) []NodeID {
	seen := map[NodeID]bool{}
	var walk func(NodeID)
	walk = func(n NodeID) {
		for _, a := range g.SuccArcs(n) {
			if !seen[a.To] {
				seen[a.To] = true
				walk(a.To)
			}
		}
	}
	walk(id)
	out := make([]NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
