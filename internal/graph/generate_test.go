package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestChainShape(t *testing.T) {
	g := Chain(6, 2, 3)
	if g.Len() != 6 || g.NumArcs() != 5 {
		t.Fatalf("chain: %s", g.Summary())
	}
	d, _ := g.Depth()
	if d != 6 {
		t.Errorf("depth = %d", d)
	}
	w, _ := g.Width()
	if w != 1 {
		t.Errorf("width = %d", w)
	}
}

func TestForkJoinShape(t *testing.T) {
	g := ForkJoin(8, 2, 3)
	if g.Len() != 10 || g.NumArcs() != 16 {
		t.Fatalf("forkjoin: %s", g.Summary())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFFTShape(t *testing.T) {
	g, err := FFT(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// 4-point FFT: ranks = 2, so 3 rows of 4 nodes = 12 nodes, 16 arcs.
	if g.Len() != 12 || g.NumArcs() != 16 {
		t.Fatalf("fft: %s", g.Summary())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	d, _ := g.Depth()
	if d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
}

func TestFFTRejectsNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := FFT(n, 1, 1); err == nil {
			t.Errorf("FFT(%d) accepted", n)
		}
	}
}

func TestGEShape(t *testing.T) {
	g := GE(3, 5, 10, 2)
	// n=3: pivots p0,p1; updates u0.1,u0.2,u1.2 => 5 tasks.
	if g.Len() != 5 {
		t.Fatalf("ge: %s", g.Summary())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// p1 depends on u0.1 which depends on p0: depth 4 via p0->u0.1->p1->u1.2.
	d, _ := g.Depth()
	if d != 4 {
		t.Errorf("depth = %d, want 4", d)
	}
}

func TestGELargerIsAcyclicAndConnected(t *testing.T) {
	g := GE(8, 5, 10, 2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var entries []NodeID
	for _, n := range g.Nodes() {
		if len(g.Pred(n.ID)) == 0 {
			entries = append(entries, n.ID)
		}
	}
	if len(entries) != 1 {
		t.Errorf("GE should have single entry p0, got %v", entries)
	}
}

func TestLayeredRandomValidatesConfig(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []LayeredConfig{
		{Layers: 0, Width: 1},
		{Layers: 1, Width: 0},
		{Layers: 1, Width: 1, MinWork: 5, MaxWork: 1},
		{Layers: 1, Width: 1, MinWords: 5, MaxWords: 1},
		{Layers: 1, Width: 1, MinWork: -1, MaxWork: 1},
	}
	for _, cfg := range bad {
		if _, err := LayeredRandom(rng, cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestLayeredRandomDeterministic(t *testing.T) {
	cfg := LayeredConfig{Layers: 5, Width: 4, MinWork: 1, MaxWork: 100, MinWords: 0, MaxWords: 50, Density: 0.3}
	g1, err := LayeredRandom(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := LayeredRandom(rand.New(rand.NewSource(42)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Summary() != g2.Summary() {
		t.Errorf("same seed, different graphs:\n%s\n%s", g1.Summary(), g2.Summary())
	}
	b1, _ := g1.MarshalJSON()
	b2, _ := g2.MarshalJSON()
	if string(b1) != string(b2) {
		t.Error("same seed produced different JSON")
	}
}

func TestLayeredRandomEveryNonRootHasPredecessor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := LayeredRandom(rng, LayeredConfig{Layers: 4, Width: 4, MinWork: 1, MaxWork: 5, MinWords: 0, MaxWords: 2, Density: 0.1})
		if err != nil {
			return false
		}
		for _, n := range g.Nodes() {
			// Nodes beyond layer 0 must have at least one predecessor.
			if n.ID[:2] != "n0" && len(g.Predecessors(n.ID)) == 0 {
				return false
			}
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGeneratorsAllValidate(t *testing.T) {
	graphs := []*Graph{
		Chain(10, 3, 1),
		ForkJoin(5, 3, 1),
		Diamond(3, 1),
		GE(5, 4, 8, 2),
	}
	if fft, err := FFT(8, 2, 1); err == nil {
		graphs = append(graphs, fft)
	} else {
		t.Error(err)
	}
	for _, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", g.Name, err)
		}
		if _, err := g.Flatten(); err != nil {
			t.Errorf("%s flatten: %v", g.Name, err)
		}
	}
}
