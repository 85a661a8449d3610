package machine

import (
	"fmt"
	"sort"
	"sync"
)

// Topology is an undirected interconnection network over N processors
// numbered 0..N-1. Distances and next hops are computed by BFS the
// first time one is asked for and kept; that build is synchronized, so
// a Topology may be shared across goroutines freely. It must not be
// mutated after first use, and (holding a sync.Once) not copied.
//
// A topology built from a spec string (ParseTopology, or a machine
// read from a document) is interned: every build of one spec returns
// the same *Topology, so its routing tables — and the route tables
// schedulers keep per topology — are built once per spec, not once per
// document. Custom topologies are never interned.
type Topology struct {
	Name string
	N    int
	adj  [][]int  // sorted neighbor lists
	spec topoSpec // the built-in kind and arguments; zero for Custom

	routes sync.Once
	dist   [][]int // all-pairs hop counts, built on demand
	nextH  [][]int // nextH[p][q]: first hop from p toward q (-1 when p==q or unreachable)
	hops   int     // sum of dist over ordered pairs that reach each other: every route's length
	pairs  int     // ordered pairs of distinct processors that reach each other
}

// newTopology allocates a topology with empty adjacency.
func newTopology(name string, spec topoSpec, n int) *Topology {
	return &Topology{Name: name, N: n, adj: make([][]int, n), spec: spec}
}

// addEdge inserts the undirected edge {a,b} once.
func (t *Topology) addEdge(a, b int) {
	for _, x := range t.adj[a] {
		if x == b {
			return
		}
	}
	t.adj[a] = append(t.adj[a], b)
	t.adj[b] = append(t.adj[b], a)
}

func (t *Topology) sortAdj() {
	for i := range t.adj {
		sort.Ints(t.adj[i])
	}
}

// Custom builds a topology from an explicit undirected edge list.
// Edges are pairs of processor indices; duplicates are ignored.
func Custom(name string, n int, edges [][2]int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology %q: need at least one processor, got %d", name, n)
	}
	t := newTopology(name, topoSpec{}, n)
	for _, e := range edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return nil, fmt.Errorf("topology %q: edge (%d,%d) out of range [0,%d)", name, a, b, n)
		}
		if a == b {
			return nil, fmt.Errorf("topology %q: self-loop on %d", name, a)
		}
		t.addEdge(a, b)
	}
	t.sortAdj()
	return t, nil
}

// Hypercube returns a binary d-cube with 2^d processors; processors are
// adjacent iff their indices differ in exactly one bit. Dimension 0 is
// a single processor.
func Hypercube(dim int) (*Topology, error) {
	if dim < 0 || dim > 20 {
		return nil, fmt.Errorf("hypercube dimension %d out of range [0,20]", dim)
	}
	n := 1 << dim
	t := newTopology(fmt.Sprintf("hypercube-%d", dim), topoSpec{"hypercube", dim, 0}, n)
	for p := 0; p < n; p++ {
		for b := 0; b < dim; b++ {
			q := p ^ (1 << b)
			if p < q {
				t.addEdge(p, q)
			}
		}
	}
	t.sortAdj()
	return t, nil
}

// Mesh returns a rows×cols 2-D grid (no wraparound).
func Mesh(rows, cols int) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("mesh %dx%d: dimensions must be positive", rows, cols)
	}
	t := newTopology(fmt.Sprintf("mesh-%dx%d", rows, cols), topoSpec{"mesh", rows, cols}, rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				t.addEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				t.addEdge(id(r, c), id(r+1, c))
			}
		}
	}
	t.sortAdj()
	return t, nil
}

// Torus returns a rows×cols 2-D grid with wraparound links.
func Torus(rows, cols int) (*Topology, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("torus %dx%d: dimensions must be positive", rows, cols)
	}
	t := newTopology(fmt.Sprintf("torus-%dx%d", rows, cols), topoSpec{"torus", rows, cols}, rows*cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if cols > 1 {
				t.addEdge(id(r, c), id(r, (c+1)%cols))
			}
			if rows > 1 {
				t.addEdge(id(r, c), id((r+1)%rows, c))
			}
		}
	}
	t.sortAdj()
	return t, nil
}

// Tree returns a complete rooted tree with the given branching factor
// and number of levels; processor 0 is the root, children of node i are
// branch*i+1 .. branch*i+branch (heap numbering).
func Tree(branch, levels int) (*Topology, error) {
	if branch < 1 || levels < 1 {
		return nil, fmt.Errorf("tree branch=%d levels=%d: both must be >= 1", branch, levels)
	}
	n := 0
	pow := 1
	for l := 0; l < levels; l++ {
		n += pow
		pow *= branch
	}
	t := newTopology(fmt.Sprintf("tree-b%d-l%d", branch, levels), topoSpec{"tree", branch, levels}, n)
	for i := 0; i < n; i++ {
		for c := 1; c <= branch; c++ {
			child := branch*i + c
			if child < n {
				t.addEdge(i, child)
			}
		}
	}
	t.sortAdj()
	return t, nil
}

// Star returns a hub-and-spoke network: processor 0 is the hub directly
// connected to each of the n-1 satellites.
func Star(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("star size %d: must be >= 1", n)
	}
	t := newTopology(fmt.Sprintf("star-%d", n), topoSpec{"star", n, 0}, n)
	for i := 1; i < n; i++ {
		t.addEdge(0, i)
	}
	t.sortAdj()
	return t, nil
}

// Ring returns a cycle of n processors.
func Ring(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("ring size %d: must be >= 1", n)
	}
	t := newTopology(fmt.Sprintf("ring-%d", n), topoSpec{"ring", n, 0}, n)
	if n > 1 {
		for i := 0; i < n; i++ {
			t.addEdge(i, (i+1)%n)
		}
	}
	t.sortAdj()
	return t, nil
}

// Chain returns a linear array of n processors.
func Chain(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("chain size %d: must be >= 1", n)
	}
	t := newTopology(fmt.Sprintf("chain-%d", n), topoSpec{"chain", n, 0}, n)
	for i := 0; i+1 < n; i++ {
		t.addEdge(i, i+1)
	}
	t.sortAdj()
	return t, nil
}

// Full returns the fully-connected network on n processors.
func Full(n int) (*Topology, error) {
	if n < 1 {
		return nil, fmt.Errorf("full size %d: must be >= 1", n)
	}
	t := newTopology(fmt.Sprintf("full-%d", n), topoSpec{"full", n, 0}, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t.addEdge(i, j)
		}
	}
	t.sortAdj()
	return t, nil
}

// Neighbors returns the sorted neighbor list of processor p. The slice
// is shared; callers must not modify it.
func (t *Topology) Neighbors(p int) []int { return t.adj[p] }

// Degree returns the number of direct links of processor p.
func (t *Topology) Degree(p int) int { return len(t.adj[p]) }

// NumLinks returns the number of undirected links.
func (t *Topology) NumLinks() int {
	total := 0
	for _, a := range t.adj {
		total += len(a)
	}
	return total / 2
}

// Precompute builds the BFS routing tables (hop counts and next hops;
// there is no per-pair path table) now rather than at the first Hops
// or NextHop, for callers that want that cost outside a timed region.
func (t *Topology) Precompute() { t.buildRoutes() }

// buildRoutes runs BFS from every source, once, filling dist and nextH.
func (t *Topology) buildRoutes() {
	t.routes.Do(func() {
		t.dist = make([][]int, t.N)
		t.nextH = make([][]int, t.N)
		queue := make([]int, 0, t.N)
		for s := 0; s < t.N; s++ {
			t.dist[s] = make([]int, t.N)
			t.nextH[s] = make([]int, t.N)
			t.bfs(s, t.dist[s], t.nextH[s], queue)
			for _, d := range t.dist[s] {
				if d > 0 {
					t.hops, t.pairs = t.hops+d, t.pairs+1
				}
			}
		}
	})
}

// bfs fills dist (hop counts from s, -1 where unreachable) and, when
// non-nil, next (first hop from s toward each processor, else -1),
// visiting neighbors in sorted order. queue is scratch of capacity N.
func (t *Topology) bfs(s int, dist, next, queue []int) {
	for i := range dist {
		dist[i] = -1
	}
	for i := range next {
		next[i] = -1
	}
	dist[s] = 0
	queue = append(queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range t.adj[u] {
			if dist[v] != -1 {
				continue
			}
			dist[v] = dist[u] + 1
			if next != nil {
				if u == s {
					next[v] = v
				} else {
					next[v] = next[u]
				}
			}
			queue = append(queue, v)
		}
	}
}

// Hops returns the shortest-path hop count between p and q, or -1 if
// they are disconnected.
func (t *Topology) Hops(p, q int) int {
	t.buildRoutes()
	return t.dist[p][q]
}

// NextHop returns the first processor on a shortest route from p toward
// q (BFS over sorted neighbor lists, so routes are deterministic), or
// -1 when p == q or q is unreachable.
func (t *Topology) NextHop(p, q int) int {
	t.buildRoutes()
	return t.nextH[p][q]
}

// Diameter returns the largest pairwise hop count, or -1 if the network
// is disconnected.
func (t *Topology) Diameter() int {
	t.buildRoutes()
	d := 0
	for p := 0; p < t.N; p++ {
		for q := 0; q < t.N; q++ {
			if t.dist[p][q] < 0 {
				return -1
			}
			if t.dist[p][q] > d {
				d = t.dist[p][q]
			}
		}
	}
	return d
}

// AvgDist returns the mean hop count over ordered pairs of distinct
// processors (0 for a single-processor network).
func (t *Topology) AvgDist() float64 {
	t.buildRoutes()
	if t.pairs == 0 {
		return 0
	}
	return float64(t.hops) / float64(t.pairs)
}

// RouteHops returns the length of every shortest route together: the
// sum of Hops over all ordered pairs of processors that reach each
// other.
func (t *Topology) RouteHops() int {
	t.buildRoutes()
	return t.hops
}

// IsConnected reports whether every processor can reach every other:
// one BFS from processor 0, which builds no routing table.
func (t *Topology) IsConnected() bool {
	dist := make([]int, t.N)
	t.bfs(0, dist, nil, make([]int, 0, t.N))
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// Validate checks the topology is non-empty and connected (Banger
// schedules assume any processor can reach any other).
func (t *Topology) Validate() error {
	if t.N < 1 {
		return fmt.Errorf("topology %q: no processors", t.Name)
	}
	if !t.IsConnected() {
		return fmt.Errorf("topology %q: network is disconnected", t.Name)
	}
	return nil
}

// String summarises the topology.
func (t *Topology) String() string {
	return fmt.Sprintf("%s: %d PEs, %d links, diameter %d", t.Name, t.N, t.NumLinks(), t.Diameter())
}
