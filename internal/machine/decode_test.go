package machine

import (
	"encoding/json"
	"sync"
	"testing"
)

func decodeMachine(t testing.TB, doc string) *Machine {
	t.Helper()
	var m Machine
	if err := json.Unmarshal([]byte(doc), &m); err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	return &m
}

// TestDecodeMachineLinear: decoding a machine builds adjacency lists
// and checks connectivity with one BFS — linear in the machine. It used
// to build the all-pairs tables to learn that a ring is connected:
// 1 051 677 allocations for ring:1024.
func TestDecodeMachineLinear(t *testing.T) {
	for _, spec := range []string{"ring:1024", "mesh:32x32"} {
		doc := `{"name":"big","topology":"` + spec + `","params":{"ProcSpeed":1}}`
		if n := testing.AllocsPerRun(3, func() { decodeMachine(t, doc) }); n >= 5000 {
			t.Errorf("decoding %s made %.0f allocations, want under 5000", spec, n)
		}
	}
}

// TestDecodeRefusesDisconnected: connectivity is still checked at
// decode, with the same words.
func TestDecodeRefusesDisconnected(t *testing.T) {
	var m Machine
	err := json.Unmarshal([]byte(`{"name":"split","n":4,"edges":[[0,1]],"params":{"ProcSpeed":1}}`), &m)
	if err == nil || err.Error() != `topology "split-net": network is disconnected` {
		t.Errorf("err = %v, want the disconnected-network error", err)
	}
}

// referenceRoutes is the all-pairs BFS as it stood when every
// machine.New ran it eagerly: the routing tables a decoded machine
// builds on demand must equal it entry for entry.
func referenceRoutes(t *Topology) (dist, next [][]int) {
	for s := 0; s < t.N; s++ {
		d, nx := make([]int, t.N), make([]int, t.N)
		for i := range d {
			d[i], nx[i] = -1, -1
		}
		d[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range t.adj[u] {
				if d[v] == -1 {
					d[v] = d[u] + 1
					if u == s {
						nx[v] = v
					} else {
						nx[v] = nx[u]
					}
					queue = append(queue, v)
				}
			}
		}
		dist, next = append(dist, d), append(next, nx)
	}
	return dist, next
}

func TestDecodedMachineRoutes(t *testing.T) {
	docs := []string{`"n":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,0],[0,3]]`}
	for _, spec := range []string{"hypercube:4", "mesh:4x5", "torus:4x4", "tree:2x4", "star:9", "ring:17", "chain:6", "full:5", "ring:1"} {
		docs = append(docs, `"topology":"`+spec+`"`)
	}
	for _, topo := range docs {
		m := decodeMachine(t, `{"name":"m",`+topo+`,"params":{"ProcSpeed":1}}`)
		tp := m.Topo
		dist, next := referenceRoutes(tp)
		diameter := 0
		for p := 0; p < tp.N; p++ {
			for q := 0; q < tp.N; q++ {
				if got := tp.Hops(p, q); got != dist[p][q] {
					t.Fatalf("%s: Hops(%d,%d) = %d, want %d", topo, p, q, got, dist[p][q])
				}
				if got := tp.NextHop(p, q); got != next[p][q] {
					t.Fatalf("%s: NextHop(%d,%d) = %d, want %d", topo, p, q, got, next[p][q])
				}
				diameter = max(diameter, dist[p][q])
			}
		}
		if got := tp.Diameter(); got != diameter {
			t.Errorf("%s: Diameter = %d, want %d", topo, got, diameter)
		}
		if !tp.IsConnected() {
			t.Errorf("%s: decoded but not connected", topo)
		}
	}
}

// TestRoutesBuildOnceUnderConcurrency: nothing builds a decoded
// machine's tables before it is shared, so the first NextHop may come
// from several goroutines at once (two worker daemons opening one
// schedule, Compare's schedulers). Run under -race.
func TestRoutesBuildOnceUnderConcurrency(t *testing.T) {
	tp := decodeMachine(t, `{"name":"m","topology":"ring:64","params":{"ProcSpeed":1}}`).Topo
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 1; q < tp.N; q++ {
				if hop := tp.NextHop(0, q); hop != 1 && hop != tp.N-1 {
					t.Errorf("goroutine %d: NextHop(0,%d) = %d", g, q, hop)
				}
				if tp.Hops(q, 0) != min(q, tp.N-q) {
					t.Errorf("goroutine %d: Hops(%d,0) = %d", g, q, tp.Hops(q, 0))
				}
			}
		}(g)
	}
	wg.Wait()
}
