package sched

import (
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/machine"
)

// TestMHNetRoutesMatchNextHop checks the flat tables newMHNet builds
// against the topology they are derived from, by brute force: every
// route decodes (through linkTo) to the NextHop walk and is Hops long,
// and each link's destination list is exactly the destinations routed
// over it. Covers every topology the conformance generator draws, the
// benchmark's ring:128 and an irregular custom graph.
func TestMHNetRoutesMatchNextHop(t *testing.T) {
	machines := []*machine.Machine{}
	for _, spec := range []string{
		"full:2", "full:3", "full:4", "hypercube:1", "hypercube:2", "hypercube:3",
		"star:3", "star:4", "ring:4", "chain:3", "mesh:2x2", "torus:2x2", "tree:2x3",
		"ring:128", "full:1",
	} {
		machines = append(machines, mk(t, spec, costlyComm()))
	}
	// Two cycles sharing a chorded hub, plus a leaf: degrees 1 to 5 and
	// ties between equal-length routes for NextHop to break.
	irregular, err := machine.Custom("irregular", 8, [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}, {2, 4}, {4, 5}, {5, 6}, {2, 7}, {6, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	machines = append(machines, machine.MustNew("irregular", irregular, costlyComm()))

	for _, m := range machines {
		topo, P := m.Topo, m.NumPE()
		ar := getArena()
		net, err := newMHNet(m, ar)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name, err)
		}
		links := 0
		for u := 0; u < P; u++ {
			links += topo.Degree(u)
		}
		if len(net.linkTo) != links || len(net.linkFree) != links || len(net.destOff) != links+1 {
			t.Fatalf("%s: %d directed links, tables sized %d/%d/%d", topo.Name, links,
				len(net.linkTo), len(net.linkFree), len(net.destOff)-1)
		}
		// linkFrom[l]: tail of link l, recovered from the routes below.
		linkFrom := make([]int, links)
		for l := range linkFrom {
			linkFrom[l] = -1
		}
		for p := 0; p < P; p++ {
			for q := 0; q < P; q++ {
				r := net.route(p, q)
				want := max(topo.Hops(p, q), 0)
				if len(r) != want {
					t.Fatalf("%s: route(%d,%d) has %d links, Hops = %d", topo.Name, p, q, len(r), want)
				}
				at := p
				for _, l := range r {
					if linkFrom[l] >= 0 && linkFrom[l] != at {
						t.Fatalf("%s: link %d leaves both %d and %d", topo.Name, l, linkFrom[l], at)
					}
					linkFrom[l] = at
					next := topo.NextHop(at, q)
					if int(net.linkTo[l]) != next {
						t.Fatalf("%s: route(%d,%d) goes %d->%d, NextHop says ->%d", topo.Name, p, q, at, net.linkTo[l], next)
					}
					at = next
				}
				if at != q {
					t.Fatalf("%s: route(%d,%d) ends at %d", topo.Name, p, q, at)
				}
			}
		}
		for l := 0; l < links; l++ {
			got := net.destFlat[net.destOff[l]:net.destOff[l+1]]
			u := linkFrom[l]
			if u < 0 { // impossible: u->v is itself the route from u to v
				t.Fatalf("%s: no route uses link %d (->%d)", topo.Name, l, net.linkTo[l])
			}
			var want []int32
			for d := 0; d < P; d++ {
				if topo.NextHop(u, d) == int(net.linkTo[l]) {
					want = append(want, int32(d))
				}
			}
			if !reflect.DeepEqual(append([]int32(nil), got...), want) {
				t.Errorf("%s: link %d (%d->%d) lists destinations %v, want %v", topo.Name, l, u, net.linkTo[l], got, want)
			}
		}
		ar.release()
	}
}

// TestMHSharedRoutesConcurrent: schedules on machines decoded from one
// spec share one topology and one route table, read from several
// goroutines at once, while schedules on topologies built in code —
// more of them than the memo holds — build, insert and evict entries
// around them. Every schedule must equal the serial one. Run under
// -race.
func TestMHSharedRoutesConcurrent(t *testing.T) {
	g := layeredDesign(t, 6, 8)
	specs := []string{"ring:16", "ring:24"}
	decode := func(i int) *machine.Machine {
		var m machine.Machine
		doc := `{"name":"m","topology":"` + specs[i%2] + `","params":{"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":1}}`
		if err := json.Unmarshal([]byte(doc), &m); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	want := make([]string, len(specs))
	for i := range specs {
		sc, err := (MH{}).Schedule(g, decode(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonicalFingerprint(sc)
	}
	machines := make([]*machine.Machine, 4*memoCap)
	for i := range machines {
		if machines[i] = decode(i); i%2 == 0 {
			topo, err := machine.Ring(machines[i].NumPE()) // never interned: one route table each
			if err != nil {
				t.Fatal(err)
			}
			machines[i] = machine.MustNew("m", topo, machine.DefaultParams())
		}
	}
	var wg sync.WaitGroup
	for i, m := range machines {
		wg.Add(1)
		go func(i int, m *machine.Machine) {
			defer wg.Done()
			sc, err := (MH{}).Schedule(g, m)
			if err != nil {
				t.Error(err)
				return
			}
			if got := canonicalFingerprint(sc); got != want[i%2] {
				t.Errorf("schedule %d on %s differs from the serial one", i, m.Topo.Name)
			}
		}(i, m)
	}
	wg.Wait()
	mhRouteMemo.Lock()
	n := len(mhRouteMemo.entries)
	mhRouteMemo.Unlock()
	if n > memoCap {
		t.Errorf("route memo holds %d entries, cap is %d", n, memoCap)
	}
}

// TestMHRouteMemoBoundedByBytes: schedules on more distinct large
// topologies than the route memo holds pin the tables that fit its byte
// budget, not one table per entry. Each chain:N table here is about
// 5.5 MB; with the budget lowered to 8 MB the memo keeps the newest
// alone, and the heap a collection leaves behind grows by about that
// (plus the compiled views), not by the ~44 MB eight tables would hold.
func TestMHRouteMemoBoundedByBytes(t *testing.T) {
	setBudget := func(b int) int {
		mhRouteMemo.Lock()
		defer mhRouteMemo.Unlock()
		old := mhRouteMemo.budget
		mhRouteMemo.budget = b
		return old
	}
	const budget = 8 << 20
	defer setBudget(setBudget(budget))
	g := layeredDesign(t, 2, 4)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for n := 160; n < 160+memoCap+2; n++ {
		topo, err := machine.Chain(n)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := (MH{}).Schedule(g, machine.MustNew("m", topo, costlyComm())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)

	mhRouteMemo.Lock()
	sum := 0
	for _, r := range mhRouteMemo.entries {
		sum += mhRouteMemo.size(r)
	}
	entries, total := len(mhRouteMemo.entries), mhRouteMemo.total
	mhRouteMemo.Unlock()
	if total != sum {
		t.Errorf("route memo counts %d bytes, its entries hold %d", total, sum)
	}
	if entries > 1 && total > budget {
		t.Errorf("route memo holds %d tables of %d bytes in all, budget %d", entries, total, budget)
	}
	if mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20); mb > 20 {
		t.Errorf("scheduling on %d large chains left %.1f MB more live heap, want at most 20 MB", memoCap+2, mb)
	}
}

// TestMHColdAllocsFlatInDiameter pins MH's set-up cost on a machine
// value it has never seen, read from a document the way a request's
// is: two machines decoded from one spec share one topology, so with
// the arena warm a schedule on the second allocates its compiled view
// and its result, not routing or route tables (the memoized path table
// and its map-driven re-encoding were 16.65 MB here; a topology's own
// route tables are 2.1 MB). The schedule itself is pinned to the one
// those tables produced.
func TestMHColdAllocsFlatInDiameter(t *testing.T) {
	const golden = "482e81ab6d5a80ec60956073fb3cdd5bd233fe9ecc60e562adfce7ede3169d28"
	g := layeredDesign(t, 20, 25) // 501 tasks
	decode := func() *machine.Machine {
		var m machine.Machine
		doc := `{"name":"ring:128","topology":"ring:128","params":{"ProcSpeed":1,"MsgStartup":5,"WordTime":1}}`
		if err := json.Unmarshal([]byte(doc), &m); err != nil {
			t.Fatal(err)
		}
		return &m
	}
	first, fresh := decode(), decode()
	if first.Topo != fresh.Topo {
		t.Fatal("two machines decoded from ring:128 hold different topologies")
	}
	if _, err := (MH{}).Schedule(g, first); err != nil {
		t.Fatal(err) // warm-up: sizes the pooled arena
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sc, err := (MH{}).Schedule(g, fresh)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 2 {
		t.Errorf("cold MH schedule on ring:128 allocated %.2f MB, want under 2 MB", mb)
	}
	if got := canonicalFingerprint(sc); got != golden {
		t.Errorf("schedule fingerprint %s, want %s", got, golden)
	}
}

// TestMHRouteBytesMatchesTables: the size a server checks before MH runs
// is the size of the tables MH then builds, as the route memo counts it.
func TestMHRouteBytesMatchesTables(t *testing.T) {
	for _, spec := range []string{"full:1", "chain:2", "ring:16", "chain:32", "torus:4x8", "hypercube:5", "tree:3x3", "star:9"} {
		topo, err := machine.ParseTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		ar := getArena()
		r, err := newMHRoutes(topo, ar)
		ar.release()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := MHRouteBytes(topo), mhRouteMemo.size(r); got != want {
			t.Errorf("%s: MHRouteBytes = %d, the built tables take %d", spec, got, want)
		}
	}
}
