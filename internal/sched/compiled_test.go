package sched

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// TestCompiledCacheInvalidation guards the compiled-view cache: a
// structural mutation must be visible to the next Schedule call.
func TestCompiledCacheInvalidation(t *testing.T) {
	topo, err := machine.Full(2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("mutate")
	g.MustAddTask("a", "", 10)
	g.MustAddTask("b", "", 10)
	sc, err := (HLFET{}).Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Msgs) != 0 {
		t.Fatalf("independent tasks produced %d msgs", len(sc.Msgs))
	}
	v := g.Version()
	g.MustConnect("a", "b", "x", 5)
	if g.Version() == v {
		t.Fatal("Connect did not bump the graph version")
	}
	sc2, err := (HLFET{}).Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.Validate(); err != nil {
		t.Fatalf("schedule after mutation invalid (stale compiled view?): %v", err)
	}
	bSlot, _ := sc2.PrimarySlot("b")
	aSlot, _ := sc2.PrimarySlot("a")
	if bSlot.Start < aSlot.Finish {
		t.Errorf("b starts at %v before a finishes at %v: new arc ignored", bSlot.Start, aSlot.Finish)
	}
}

func equivGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: 8, Width: 6,
		MinWork: 5, MaxWork: 90, MinWords: 0, MaxWords: 40, Density: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCompiledCacheConcurrent drives the compiled-view cache the way a
// server does: cold schedules of distinct graphs and of one shared
// graph, all at once. compiledFor compiles outside its lock, so this is
// the test the race detector needs to see; every schedule must equal
// its serial counterpart and the cache must stay within its cap.
func TestCompiledCacheConcurrent(t *testing.T) {
	topo, err := machine.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	newMachine := func() *machine.Machine {
		m, err := machine.New(topo.Name, topo, machine.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	const distinct, sharers = 2 * memoCap, 4
	want := make([]string, distinct+1)
	for i := range want {
		sc, err := (ETF{}).Schedule(equivGraph(t, int64(i+1)), newMachine())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonicalFingerprint(sc)
	}

	// Fresh graph and machine values: none of the keys below is cached.
	// (The serial pass has built topo's lazy routing tables, so sharing
	// topo across the goroutines is read-only.)
	shared, sharedM := equivGraph(t, distinct+1), newMachine()
	var wg sync.WaitGroup
	check := func(i int, g *graph.Graph, m *machine.Machine) {
		defer wg.Done()
		sc, err := (ETF{}).Schedule(g, m)
		if err != nil {
			t.Error(err)
			return
		}
		if got := canonicalFingerprint(sc); got != want[i] {
			t.Errorf("graph %d: concurrent schedule differs from the serial one", i)
		}
	}
	for i := 0; i < distinct; i++ {
		wg.Add(1)
		go check(i, equivGraph(t, int64(i+1)), newMachine())
	}
	for i := 0; i < sharers; i++ {
		wg.Add(1)
		go check(distinct, shared, sharedM)
	}
	wg.Wait()

	compiledCache.Lock()
	n := len(compiledCache.entries)
	compiledCache.Unlock()
	if n > memoCap {
		t.Errorf("compiled cache holds %d entries, cap is %d", n, memoCap)
	}
}
