package machine

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestHypercubeStructure(t *testing.T) {
	for dim := 0; dim <= 4; dim++ {
		h, err := Hypercube(dim)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		n := 1 << dim
		if h.N != n {
			t.Errorf("dim %d: N = %d", dim, h.N)
		}
		if links := h.NumLinks(); links != dim*n/2 {
			t.Errorf("dim %d: links = %d, want %d", dim, links, dim*n/2)
		}
		for p := 0; p < n; p++ {
			if h.Degree(p) != dim {
				t.Errorf("dim %d: degree(%d) = %d", dim, p, h.Degree(p))
			}
		}
		if d := h.Diameter(); d != dim {
			t.Errorf("dim %d: diameter = %d", dim, d)
		}
	}
}

// The defining property of a hypercube: hop distance equals Hamming
// distance of the processor indices.
func TestHypercubeHopsAreHammingDistance(t *testing.T) {
	h, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		p, q := int(a%16), int(b%16)
		return h.Hops(p, q) == bits.OnesCount(uint(p^q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Mesh distance is Manhattan distance.
func TestMeshHopsAreManhattan(t *testing.T) {
	rows, cols := 4, 5
	m, err := Mesh(rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	abs := func(x int) int {
		if x < 0 {
			return -x
		}
		return x
	}
	for p := 0; p < m.N; p++ {
		for q := 0; q < m.N; q++ {
			pr, pc := p/cols, p%cols
			qr, qc := q/cols, q%cols
			want := abs(pr-qr) + abs(pc-qc)
			if got := m.Hops(p, q); got != want {
				t.Fatalf("Hops(%d,%d) = %d, want %d", p, q, got, want)
			}
		}
	}
}

func TestTorusWrapsAround(t *testing.T) {
	m, err := Torus(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Opposite corners are 2 hops in a 4x4 torus (wrap both ways).
	if got := m.Hops(0, 15); got != 2 {
		t.Errorf("Hops(0,15) = %d, want 2", got)
	}
	if d := m.Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
}

func TestStarProperties(t *testing.T) {
	s, err := Star(8)
	if err != nil {
		t.Fatal(err)
	}
	if s.Degree(0) != 7 {
		t.Errorf("hub degree = %d", s.Degree(0))
	}
	for i := 1; i < 8; i++ {
		if s.Degree(i) != 1 {
			t.Errorf("satellite %d degree = %d", i, s.Degree(i))
		}
		if s.Hops(0, i) != 1 {
			t.Errorf("Hops(0,%d) = %d", i, s.Hops(0, i))
		}
	}
	if s.Hops(1, 2) != 2 {
		t.Errorf("satellite-satellite hops = %d, want 2", s.Hops(1, 2))
	}
	if d := s.Diameter(); d != 2 {
		t.Errorf("diameter = %d", d)
	}
}

func TestTreeProperties(t *testing.T) {
	tr, err := Tree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.N != 7 {
		t.Fatalf("N = %d, want 7", tr.N)
	}
	if tr.NumLinks() != 6 {
		t.Errorf("links = %d, want 6", tr.NumLinks())
	}
	// Leaf 3 to leaf 6 passes through the root: 2 up + 2 down.
	if got := tr.Hops(3, 6); got != 4 {
		t.Errorf("Hops(3,6) = %d, want 4", got)
	}
}

func TestRingChainFull(t *testing.T) {
	r, _ := Ring(6)
	if r.Hops(0, 3) != 3 || r.Hops(0, 5) != 1 {
		t.Errorf("ring hops wrong: %d %d", r.Hops(0, 3), r.Hops(0, 5))
	}
	c, _ := Chain(6)
	if c.Hops(0, 5) != 5 {
		t.Errorf("chain hops = %d", c.Hops(0, 5))
	}
	f, _ := Full(6)
	if f.Diameter() != 1 {
		t.Errorf("full diameter = %d", f.Diameter())
	}
	if f.NumLinks() != 15 {
		t.Errorf("full links = %d", f.NumLinks())
	}
}

func TestSingleProcessorTopologies(t *testing.T) {
	for _, mk := range []func() (*Topology, error){
		func() (*Topology, error) { return Hypercube(0) },
		func() (*Topology, error) { return Mesh(1, 1) },
		func() (*Topology, error) { return Star(1) },
		func() (*Topology, error) { return Ring(1) },
		func() (*Topology, error) { return Full(1) },
		func() (*Topology, error) { return Tree(2, 1) },
	} {
		topo, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		if topo.N != 1 || topo.Diameter() != 0 || !topo.IsConnected() {
			t.Errorf("%s: bad single-PE topology", topo.Name)
		}
		if topo.AvgDist() != 0 {
			t.Errorf("%s: AvgDist = %f", topo.Name, topo.AvgDist())
		}
	}
}

func TestConstructorArgumentValidation(t *testing.T) {
	cases := []func() (*Topology, error){
		func() (*Topology, error) { return Hypercube(-1) },
		func() (*Topology, error) { return Hypercube(21) },
		func() (*Topology, error) { return Mesh(0, 3) },
		func() (*Topology, error) { return Torus(3, 0) },
		func() (*Topology, error) { return Tree(0, 2) },
		func() (*Topology, error) { return Star(0) },
		func() (*Topology, error) { return Ring(0) },
		func() (*Topology, error) { return Chain(0) },
		func() (*Topology, error) { return Full(0) },
		func() (*Topology, error) { return Custom("c", 0, nil) },
		func() (*Topology, error) { return Custom("c", 2, [][2]int{{0, 5}}) },
		func() (*Topology, error) { return Custom("c", 2, [][2]int{{1, 1}}) },
	}
	for i, mk := range cases {
		if _, err := mk(); err == nil {
			t.Errorf("case %d: invalid arguments accepted", i)
		}
	}
}

func TestCustomAndDisconnected(t *testing.T) {
	topo, err := Custom("pair", 4, [][2]int{{0, 1}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if topo.IsConnected() {
		t.Error("disconnected topology reported connected")
	}
	if err := topo.Validate(); err == nil {
		t.Error("Validate accepted disconnected topology")
	}
	if topo.Hops(0, 2) != -1 {
		t.Errorf("Hops across components = %d, want -1", topo.Hops(0, 2))
	}
	if topo.Diameter() != -1 {
		t.Errorf("Diameter = %d, want -1", topo.Diameter())
	}
	if topo.NextHop(0, 2) != -1 {
		t.Error("NextHop across components should be -1")
	}
}

// TestRouteEndpointsAndLength walks NextHop from p to q, the route MH
// books its links along.
func TestRouteEndpointsAndLength(t *testing.T) {
	h, _ := Hypercube(3)
	for p := 0; p < 8; p++ {
		for q := 0; q < 8; q++ {
			route := []int{p}
			for cur := p; cur != q && len(route) <= 8; {
				cur = h.NextHop(cur, q)
				route = append(route, cur)
			}
			if route[0] != p || route[len(route)-1] != q {
				t.Fatalf("route %d->%d = %v", p, q, route)
			}
			if len(route)-1 != h.Hops(p, q) {
				t.Fatalf("route length %d != hops %d", len(route)-1, h.Hops(p, q))
			}
			// Consecutive route elements must be adjacent.
			for i := 1; i < len(route); i++ {
				adj := false
				for _, x := range h.Neighbors(route[i-1]) {
					if x == route[i] {
						adj = true
					}
				}
				if !adj {
					t.Fatalf("route %v has non-adjacent step %d->%d", route, route[i-1], route[i])
				}
			}
		}
	}
}

// Hop distances form a metric: symmetric, zero iff equal, triangle
// inequality. Checked across every built-in topology family.
func TestHopsIsAMetric(t *testing.T) {
	topos := []*Topology{}
	mk := func(tp *Topology, err error) {
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tp)
	}
	mk(Hypercube(3))
	mk(Mesh(3, 3))
	mk(Torus(3, 3))
	mk(Tree(2, 3))
	mk(Star(7))
	mk(Ring(7))
	mk(Chain(5))
	mk(Full(6))
	for _, tp := range topos {
		for p := 0; p < tp.N; p++ {
			if tp.Hops(p, p) != 0 {
				t.Errorf("%s: Hops(%d,%d) != 0", tp.Name, p, p)
			}
			for q := 0; q < tp.N; q++ {
				if tp.Hops(p, q) != tp.Hops(q, p) {
					t.Errorf("%s: asymmetric %d,%d", tp.Name, p, q)
				}
				if p != q && tp.Hops(p, q) < 1 {
					t.Errorf("%s: Hops(%d,%d) = %d", tp.Name, p, q, tp.Hops(p, q))
				}
				for r := 0; r < tp.N; r++ {
					if tp.Hops(p, q)+tp.Hops(q, r) < tp.Hops(p, r) {
						t.Errorf("%s: triangle violated %d,%d,%d", tp.Name, p, q, r)
					}
				}
			}
		}
	}
}

func TestAvgDistOrdering(t *testing.T) {
	// For 8 PEs: full < hypercube < mesh-2x4 <= chain in average distance.
	full, _ := Full(8)
	hc, _ := Hypercube(3)
	mesh, _ := Mesh(2, 4)
	chain, _ := Chain(8)
	if !(full.AvgDist() < hc.AvgDist() && hc.AvgDist() < mesh.AvgDist() && mesh.AvgDist() < chain.AvgDist()) {
		t.Errorf("avg dist ordering violated: full=%.2f hc=%.2f mesh=%.2f chain=%.2f",
			full.AvgDist(), hc.AvgDist(), mesh.AvgDist(), chain.AvgDist())
	}
}
