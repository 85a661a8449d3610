package banger_test

// The benchmark harness: one benchmark per artefact of the paper's
// evaluation (Figures 1-4) plus the ablation experiments A-D described
// in DESIGN.md. `go run ./cmd/experiments` prints the figures
// themselves; these benchmarks measure the machinery that regenerates
// them.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wire"
)

func mustLU(b *testing.B) *core.Environment {
	b.Helper()
	env, err := core.OpenBuiltin("lu3x3")
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func hypercubeMachine(b *testing.B, dim int) *machine.Machine {
	b.Helper()
	topo, err := machine.Hypercube(dim)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkFig1_BuildFlattenLU measures constructing and flattening
// the paper's Figure 1 design (two-level hierarchical LU graph).
func BenchmarkFig1_BuildFlattenLU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := project.LU3x3()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Design.Flatten(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2_Topologies measures building each supported topology
// family (Figure 2) including its all-pairs routing tables.
func BenchmarkFig2_Topologies(b *testing.B) {
	build := map[string]func() (*machine.Topology, error){
		"hypercube": func() (*machine.Topology, error) { return machine.Hypercube(6) },
		"mesh":      func() (*machine.Topology, error) { return machine.Mesh(8, 8) },
		"tree":      func() (*machine.Topology, error) { return machine.Tree(2, 6) },
		"star":      func() (*machine.Topology, error) { return machine.Star(64) },
		"full":      func() (*machine.Topology, error) { return machine.Full(64) },
	}
	for name, mk := range build {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				topo, err := mk()
				if err != nil {
					b.Fatal(err)
				}
				_ = topo.Diameter() // forces BFS routing tables
			}
		})
	}
}

// BenchmarkFig3_ScheduleHypercube measures MH mapping the LU design
// onto the machines of Figure 3: hypercubes of 2, 4 and 8 processors.
func BenchmarkFig3_ScheduleHypercube(b *testing.B) {
	env := mustLU(b)
	for _, dim := range []int{1, 2, 3} {
		m := hypercubeMachine(b, dim)
		b.Run(m.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := (sched.MH{}).Schedule(env.Flat.Graph, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig3_SpeedupPrediction measures producing the full speedup
// chart (schedule on 1, 2, 4, 8 PEs).
func BenchmarkFig3_SpeedupPrediction(b *testing.B) {
	env := mustLU(b)
	for i := 0; i < b.N; i++ {
		if _, err := env.SpeedupCurve("mh", []int{0, 1, 2, 3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_NewtonSqrtTask measures the calculator's instant
// feedback: trial-running the Figure 4 SquareRoot routine.
func BenchmarkFig4_NewtonSqrtTask(b *testing.B) {
	p, err := project.NewtonSqrt()
	if err != nil {
		b.Fatal(err)
	}
	src := p.Design.Node("sqrt").Routine
	inputs := pits.Env{"a": pits.Num(2)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pits.TrialRun(src, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtA_SchedulerComparison measures every heuristic on a
// 64-task random layered graph over an 8-PE hypercube — the ablation
// behind experiment A.
func BenchmarkExtA_SchedulerComparison(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: 8, Width: 8, MinWork: 10, MaxWork: 100, MinWords: 1, MaxWords: 40, Density: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := hypercubeMachine(b, 3)
	for _, s := range sched.All() {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(g, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtC_RealRun measures the goroutine runner executing the
// scheduled LU program end to end (experiment C's measured side).
func BenchmarkExtC_RealRun(b *testing.B) {
	env := mustLU(b)
	sc, err := env.Schedule("etf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Run(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtC_Simulate measures the discrete-event simulator on the
// same schedule (experiment C's predicted side).
func BenchmarkExtC_Simulate(b *testing.B) {
	env := mustLU(b)
	sc, err := env.Schedule("etf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtD_Codegen measures generating the standalone Go program
// for the scheduled LU design (experiment D).
func BenchmarkExtD_Codegen(b *testing.B) {
	env := mustLU(b)
	sc, err := env.Schedule("etf")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codegen.Generate(sc, env.Flat, env.Project.Inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTaskFloor measures what the runner spends on one task of the
// harness design apart from messages: bind two producers' results into
// the task's numbered variables, run the compiled `v = a + b * 2` on an
// interpreter the processor reuses, log the start and the end, and keep
// the variables as the task's result. A processor's slot array is made
// once per era for all its tasks; here one array serves 16 tasks, the
// share of a processor in the run-wide workload. This is the unit the
// run workloads pay 501 times a request: two boxed numbers, the
// routine's results, and nothing else, against five allocations and
// 360 B while each task built a name-keyed environment and the
// interpreter walked the routine's syntax tree.
func BenchmarkTaskFloor(b *testing.B) {
	prog := pits.MustParse("v = a + b * 2")
	names := prog.Vars()
	ia, ib := slices.Index(names, "a"), slices.Index(names, "b")
	local := map[graph.NodeID][]pits.Value{"l": make([]pits.Value, len(names)), "r": make([]pits.Value, len(names))}
	local["l"][ia], local["r"][ib] = pits.Num(3), pits.Num(4)
	in := &pits.Interp{}
	var tr trace.Trace
	var arena []pits.Value
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(arena) < len(names) {
			arena = make([]pits.Value, 16*len(names))
		}
		vars := arena[:len(names):len(names)]
		arena = arena[len(names):]
		vars[ia], vars[ib] = pits.Unalias(local["l"][ia]), pits.Unalias(local["r"][ib])
		tr.Events = append(tr.Events[:0], trace.Event{Kind: trace.TaskStart, Task: "t3_7", PE: 1})
		in.Seed = int64(i)
		if err := in.Exec(prog, vars); err != nil {
			b.Fatal(err)
		}
		tr.Add(trace.Event{Kind: trace.TaskEnd, At: machine.Time(in.Ops()), Task: "t3_7", PE: 1})
		local["t3_7"] = vars // a task's results stay on its processor
	}
}

// scalingGraphs memoizes scalingGraph results: generating the ~100k
// task graph takes most of a minute, and several benchmarks share the
// same sizes. Benchmarks run sequentially, so no lock.
var scalingGraphs = map[[2]int]*graph.Graph{}

// scalingGraph builds (once) the deterministic random layered DAG used
// by the scaling benchmarks: layers*width tasks at density 0.3.
func scalingGraph(b *testing.B, layers, width int) *graph.Graph {
	b.Helper()
	if g, ok := scalingGraphs[[2]int{layers, width}]; ok {
		return g
	}
	rng := rand.New(rand.NewSource(7))
	g, err := graph.LayeredRandom(rng, graph.LayeredConfig{
		Layers: layers, Width: width,
		MinWork: 10, MaxWork: 100, MinWords: 1, MaxWords: 40, Density: 0.3,
	})
	if err != nil {
		b.Fatal(err)
	}
	scalingGraphs[[2]int{layers, width}] = g
	return g
}

// scalingSizes covers interactive sizes (16..256 tasks) plus the large
// generated graphs (~500/2000/8000 tasks) where asymptotic behaviour
// dominates.
var scalingSizes = []struct{ layers, width int }{
	{4, 4}, {8, 8}, {16, 16}, {25, 20}, {50, 40}, {100, 80},
}

// scalingSizesBig extends the sweep to ~32k and ~100k tasks for the
// O(ready×PEs)-per-step schedulers. Skipped under -short (bench-smoke):
// generating and scheduling these graphs takes minutes, not seconds.
var scalingSizesBig = []struct{ layers, width int }{
	{200, 160}, {350, 290},
}

// BenchmarkSchedulerScaling measures the greedy schedulers on growing
// random graphs, checking each heuristic stays usable at interactive
// sizes. Allocation counts are reported because the arena-backed
// scheduler core's main promise is doing this work without per-
// evaluation garbage. Each sub-benchmark schedules once before the
// timer starts, so the one-time compile of the graph view (cached
// across runs) and the arena warm-up are not in the measured op —
// the op is the steady-state schedule/inspect/tweak latency.
// docs/SCHEDULING.md keeps the ~100k-task rows.
func BenchmarkSchedulerScaling(b *testing.B) {
	schedulers := []sched.Scheduler{
		sched.MH{}, sched.ETF{}, sched.HLFET{}, sched.DSH{}, sched.ISH{}, sched.BSP{},
	}
	// The quadratic-and-worse schedulers stop at ~8k tasks; the
	// near-linear ones continue into the 32k/100k range.
	bigOK := map[string]bool{"etf": true, "hlfet": true, "bsp": true}
	// One machine for the whole sweep: the compiled graph view is
	// cached per (graph, machine) identity, so sharing the machine lets
	// every sub-benchmark reuse its graph's compiled view.
	m := hypercubeMachine(b, 3)
	for _, s := range schedulers {
		b.Run(s.Name(), func(b *testing.B) {
			sizes := scalingSizes
			if bigOK[s.Name()] && !testing.Short() {
				sizes = append(append([]struct{ layers, width int }{}, sizes...), scalingSizesBig...)
			}
			for _, size := range sizes {
				g := scalingGraph(b, size.layers, size.width)
				b.Run(g.Name, func(b *testing.B) {
					b.ReportAllocs()
					if _, err := s.Schedule(g, m); err != nil { // warm compile cache + arenas
						b.Fatal(err)
					}
					// Return the warm-up schedule's spans (at 100k tasks the
					// Slots/Msgs product is most of a gigabyte) to the heap
					// free lists so the timed iterations reuse already-
					// faulted pages instead of growing the heap — first
					// touch of fresh pages is the dominant cost of a large
					// schedule on fault-slow hosts, and it is a one-time
					// cost, not part of steady-state latency.
					runtime.GC()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := s.Schedule(g, m); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// specMachine builds a new machine over the topology a spec names. The
// topology is interned, so every machine of one spec shares it and its
// routing tables.
func specMachine(tb testing.TB, spec string) *machine.Machine {
	tb.Helper()
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// BenchmarkMHCold measures MH on a machine value no schedule has seen,
// the 501-task layered design each time, so the compiled view is built
// inside the timed call (building the machine itself is not timed).
// BenchmarkSchedulerScaling reuses one machine and so never included
// any of that.
//
// The first three cases build their topology in code, a new one per
// iteration, so its hop tables and MH's link and route tables are
// built inside the timed call too; they span mean route lengths of 8,
// 32 and 3.5 hops. The decoded case is what a schedule-cache miss pays:
// its machine is read from a document naming ring:128, whose topology
// is interned, so those tables were built by the first document and are
// shared.
func BenchmarkMHCold(b *testing.B) {
	flat, _ := runnerDesign(b, 20, 25) // 501 tasks
	doc, err := json.Marshal(specMachine(b, "ring:128"))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		topo func() (*machine.Topology, error)
	}{
		{"ring:32", func() (*machine.Topology, error) { return machine.Ring(32) }},
		{"ring:128", func() (*machine.Topology, error) { return machine.Ring(128) }},
		{"hypercube:7", func() (*machine.Topology, error) { return machine.Hypercube(7) }},
		{"decoded", func() (*machine.Topology, error) {
			var m machine.Machine
			err := json.Unmarshal(doc, &m)
			return m.Topo, err
		}},
	} {
		newMachine := func() *machine.Machine {
			topo, err := c.topo()
			if err != nil {
				b.Fatal(err)
			}
			return machine.MustNew(topo.Name, topo, machine.DefaultParams())
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			if _, err := (sched.MH{}).Schedule(flat.Graph, newMachine()); err != nil { // warm the arena
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := newMachine()
				b.StartTimer()
				if _, err := (sched.MH{}).Schedule(flat.Graph, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// layeredProject is the 501-task layered design as a project on the
// machine a topology spec names.
func layeredProject(tb testing.TB, spec string) *project.Project {
	tb.Helper()
	return &project.Project{
		Name: "layered-calc", Design: layeredCalcGraph(20, 25), Machine: specMachine(tb, spec),
		Inputs: pits.Env{"x": pits.Num(3)},
	}
}

// floorBody is the request body the harness posts: layeredProject on
// ring:128 as a project document, 99 KB.
func floorBody(tb testing.TB) []byte {
	tb.Helper()
	body, err := json.Marshal(layeredProject(tb, "ring:128"))
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// requestFloor is what every request pays before the schedule cache
// can answer: decode the document, open (validate and flatten) the
// project, fingerprint it.
func requestFloor(tb testing.TB, body []byte) string {
	p, err := project.Decode(body)
	if err != nil {
		tb.Fatal(err)
	}
	env, err := core.Open(p)
	if err != nil {
		tb.Fatal(err)
	}
	return sched.Fingerprint(env.Flat, p.Machine, "mh")
}

var floorKey string

// BenchmarkRequestFloor measures requestFloor on the harness body —
// the whole of a schedule-cache hit but the HTTP round trip.
func BenchmarkRequestFloor(b *testing.B) {
	body := floorBody(b)
	floorKey = requestFloor(b, body) // fills the shared PITS tables
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		floorKey = requestFloor(b, body)
	}
}

// BenchmarkServeRequest drives one request of a harness workload
// through serve's handler in-process, with the harness's body and
// server options but no socket and no client: run-wide posts
// layeredProject on ring:32 to a virtual-time server, predict-hit on
// ring:128 in schedule mode. Both hit the schedule cache, filled by an
// untimed first request. Its B/op is the harness's alloc_mb_per_req
// less the HTTP plumbing.
func BenchmarkServeRequest(b *testing.B) {
	for _, w := range []struct {
		name, spec, query string
		virtual           bool
	}{
		{"run-wide", "ring:32", "", true},
		{"predict-hit", "ring:128", "?mode=schedule", false},
	} {
		b.Run(w.name, func(b *testing.B) {
			body, err := json.Marshal(layeredProject(b, w.spec))
			if err != nil {
				b.Fatal(err)
			}
			h := serve.New(serve.Options{DefaultAlg: "mh", TenantCap: -1, Virtual: w.virtual}).Handler()
			post := func() {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run"+w.query, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			post()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}

// allocMB reports the megabytes f allocates, after one untimed call
// that fills whatever f builds once per process.
func allocMB(f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// TestOpenAllocCeiling guards opening (validating and flattening) the
// 501-task design the first time: a design whose shape no earlier open
// interned, as a one-shot CLI open or a server's first request of a
// design is. It reads 0.59 MB: one flattening, of the design as it
// stands, into a graph that keeps one map, with routines taken parsed
// from the shared program table (0.52 MB), then the shape key's walk and
// a copy of the flat's nodes for the shape table. A second flattening, a
// defensive clone of the design or a parse per routine each show up as
// megabytes; adjacency maps beside the node index as 0.07 MB.
func TestOpenAllocCeiling(t *testing.T) {
	p := layeredProject(t, "ring:32")
	opens := 0
	mb := allocMB(func() {
		opens++
		p.Design.Name = fmt.Sprint("cold-", opens) // a name no open has interned
		if _, err := core.Open(p); err != nil {
			t.Fatal(err)
		}
	})
	if mb > 0.60 {
		t.Errorf("a cold core.Open of the 501-task design allocated %.2f MB, want at most 0.60 MB", mb)
	}
	t.Logf("a cold core.Open of the 501-task design allocated %.2f MB", mb)
}

// TestKnownShapeOpenAllocCeiling guards the hit path's biggest
// allocator: opening the 501-task design when a design of its shape,
// differing at most in task work, was opened before. The open binds the
// weights onto the interned shape: one slab of task nodes, an id index
// and the weight vector, about 0.10 MB in 13 allocations. Flattening
// and checking the design again read 0.52 MB in 3 500.
func TestKnownShapeOpenAllocCeiling(t *testing.T) {
	p := layeredProject(t, "ring:32")
	open := func() {
		if _, err := core.Open(p); err != nil {
			t.Fatal(err)
		}
	}
	mb := allocMB(open)
	allocs := testing.AllocsPerRun(10, open)
	if mb > 0.15 {
		t.Errorf("core.Open of the 501-task design allocated %.2f MB, want at most 0.15 MB", mb)
	}
	if allocs > 50 {
		t.Errorf("core.Open of the 501-task design made %.0f allocations, want at most 50", allocs)
	}
	t.Logf("core.Open of the 501-task design allocated %.2f MB in %.0f allocations", mb, allocs)
}

// TestDecodeAllocCeiling guards decoding the harness body the way the
// server does, through project.Decode, when no open has interned the
// design's shape (its design name is one nothing opens): one decode of
// the design's bytes, the shape key read off them, the design built
// from them, and a machine whose routing tables are not built until
// something routes. It reads 0.57 MB (the ceiling is that + 15 %); it
// was 1.39 MB when the design was a nested Unmarshaler and decode built
// ring:128's tables to validate it.
func TestDecodeAllocCeiling(t *testing.T) {
	p := layeredProject(t, "ring:128")
	p.Design.Name = "cold-decode" // a shape no open interns
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	mb := allocMB(func() {
		if _, err := project.Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	if mb > 0.66 {
		t.Errorf("decoding the %d KB project allocated %.2f MB, want at most 0.66 MB", len(body)>>10, mb)
	}
	t.Logf("decoding the %d KB project allocated %.2f MB", len(body)>>10, mb)
}

// TestKnownShapeDecodeAllocCeiling guards decoding and opening the
// harness body when its shape is interned, as every request after a
// server's first is: the decode reads the shape key off the wire form
// and builds no design, and the open binds the weights onto the shape.
// It reads 0.35 MB (the ceiling is that + 15 %); building the design as
// well, and digesting it again, put it at 0.67 MB.
func TestKnownShapeDecodeAllocCeiling(t *testing.T) {
	body := floorBody(t)
	requestFloor(t, body) // interns the shape
	mb := allocMB(func() {
		p, err := project.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Open(p); err != nil {
			t.Fatal(err)
		}
		if p.Design != nil {
			t.Fatal("the decode built the design of a known shape")
		}
	})
	if mb > 0.40 {
		t.Errorf("decoding and opening the %d KB project allocated %.2f MB, want at most 0.40 MB", len(body)>>10, mb)
	}
	t.Logf("decoding and opening the %d KB project allocated %.2f MB", len(body)>>10, mb)
}

// TestHitAllocCeiling guards the whole of a schedule-cache hit, handler
// included: one mode=schedule request with the harness body reads the
// body into one buffer, decodes it once, reads its shape key off the
// wire form, binds its weights onto the interned shape, fingerprints
// and answers from the cache. It reads 0.48 MB (the ceiling is that +
// 15 %); building the design from the wire form as well put it at
// 0.79, flattening and checking the design again at 1.22, and a
// streaming decoder's doubling buffer and two more maps a graph at 1.51.
func TestHitAllocCeiling(t *testing.T) {
	body := floorBody(t)
	h := serve.New(serve.Options{}).Handler()
	mb := allocMB(func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run?mode=schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
	if mb > 0.55 {
		t.Errorf("a schedule-cache hit on the %d KB project allocated %.2f MB, want at most 0.55 MB", len(body)>>10, mb)
	}
	t.Logf("a schedule-cache hit on the %d KB project allocated %.2f MB", len(body)>>10, mb)
}

// TestFingerprintAllocs guards the fingerprint's buffered writer: one
// hash Write per field was one allocation per field, 12 285 of them.
func TestFingerprintAllocs(t *testing.T) {
	flat, _ := runnerDesign(t, 20, 25)
	m := specMachine(t, "ring:128")
	if n := testing.AllocsPerRun(10, func() { floorKey = sched.Fingerprint(flat, m, "mh") }); n > 16 {
		t.Errorf("Fingerprint of the 501-task design made %.0f allocations, want at most 16", n)
	}
}

// runnerDesign builds a layered calculator design of layers*width+1
// real PITS tasks: every layer-l task combines two layer-(l-1) results,
// layer 0 reads the external input, and a final sink folds the last
// layer into one external output. Unlike the scheduler-scaling random
// graphs, every task carries an executable routine, so the parallel
// runner can actually interpret it.
func runnerDesign(tb testing.TB, layers, width int) (*graph.Flat, pits.Env) {
	tb.Helper()
	flat, err := layeredCalcGraph(layers, width).Flatten()
	if err != nil {
		tb.Fatal(err)
	}
	return flat, pits.Env{"x": pits.Num(3)}
}

// specSchedule schedules flat with ETF onto the machine a topology spec
// ("hypercube:3", "ring:128") names.
func specSchedule(tb testing.TB, flat *graph.Flat, spec string) *sched.Schedule {
	tb.Helper()
	sc, err := (sched.ETF{}).Schedule(flat.Graph, specMachine(tb, spec))
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

// layeredCalcGraph is the design behind runnerDesign, unflattened —
// layeredProject wraps it whole as a project submission.
func layeredCalcGraph(layers, width int) *graph.Graph {
	g := graph.New("layered-calc")
	g.MustAddStorage("IN", "x")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
			n := g.MustAddTask(id, string(id), int64(10+(l*7+i*3)%20))
			v := fmt.Sprintf("v%d_%d", l, i)
			if l == 0 {
				n.Routine = fmt.Sprintf("%s = x + %d", v, i)
				g.MustConnect("IN", id, "x", 1)
				continue
			}
			left := fmt.Sprintf("v%d_%d", l-1, i)
			right := fmt.Sprintf("v%d_%d", l-1, (i+1)%width)
			n.Routine = fmt.Sprintf("%s = %s + %s * 2", v, left, right)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, i)), id, left, 1)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, (i+1)%width)), id, right, 1)
		}
	}
	snk := g.MustAddTask("snk", "sink", 20)
	terms := make([]string, width)
	for i := 0; i < width; i++ {
		v := fmt.Sprintf("v%d_%d", layers-1, i)
		terms[i] = v
		g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", layers-1, i)), "snk", v, 1)
	}
	snk.Routine = "out = " + strings.Join(terms, " + ")
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)
	return g
}

// BenchmarkRunnerVirtual measures the goroutine runner in deterministic
// virtual time on a ~500-task layered calculator design scheduled by
// ETF — the fault-tolerant runtime's fault-free fast path (no retries,
// no checksums) — on an 8-processor hypercube and on a 128-processor
// ring.
func BenchmarkRunnerVirtual(b *testing.B) {
	flat, inputs := runnerDesign(b, 20, 25) // 501 tasks
	run := func(name string, sc *sched.Schedule) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := &exec.Runner{Inputs: inputs, VirtualTime: true}
				if _, err := r.Run(sc, flat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, spec := range []string{"hypercube:3", "ring:128"} {
		run(spec, specSchedule(b, flat, spec))
	}
	// The harness's run-wide shape: MH, as the server schedules it.
	sc, err := (sched.MH{}).Schedule(flat.Graph, specMachine(b, "ring:32"))
	if err != nil {
		b.Fatal(err)
	}
	run("ring:32/mh", sc)
}

// TestSessionAllocScalesWithTraffic guards the runner's memory against
// growing with the machine instead of with the work: the same 501 tasks
// in virtual time must allocate about as much on a 128-processor ring
// as on a 16-processor one. Per-processor inboxes pre-sized for the
// whole run's traffic cost 2.9 GB here, ~50x the 16-processor run.
func TestSessionAllocScalesWithTraffic(t *testing.T) {
	flat, inputs := runnerDesign(t, 20, 25) // 501 tasks
	allocPerRun := func(spec string) uint64 {
		sc := specSchedule(t, flat, spec)
		var samples []uint64
		for i := 0; i < 4; i++ { // the first run warms caches and is dropped
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r := &exec.Runner{Inputs: inputs, VirtualTime: true}
			if _, err := r.Run(sc, flat); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			samples = append(samples, after.TotalAlloc-before.TotalAlloc)
		}
		samples = samples[1:]
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[1]
	}
	small, large := allocPerRun("ring:16"), allocPerRun("ring:128")
	t.Logf("bytes allocated per run: ring:16 %d, ring:128 %d (%.1fx)", small, large, float64(large)/float64(small))
	if large >= 64<<20 {
		t.Errorf("a ring:128 run allocates %d MB, want < 64 MB", large>>20)
	}
	if large >= 3*small {
		t.Errorf("a ring:128 run allocates %.1fx a ring:16 run (%d vs %d bytes), want < 3x", float64(large)/float64(small), large, small)
	}
}

// decodedMachine reads the machine a topology spec names back from its
// document, as a request's machine is: a new value on the spec's
// interned topology.
func decodedMachine(tb testing.TB, doc []byte) *machine.Machine {
	tb.Helper()
	var m machine.Machine
	if err := json.Unmarshal(doc, &m); err != nil {
		tb.Fatal(err)
	}
	return &m
}

// TestColdScheduleAllocScalesWithDesign guards a cold prediction's
// memory against growing with the machine instead of with the design:
// ETF and MH on a fresh copy of the 501-task design and a machine read
// from a document, index built, must allocate about as much on a
// 128-processor ring as on a 16-processor one. An n×P table of
// execution times, a communication table per machine value and a P×P
// traffic matrix in the index made ring:128 2.4x ring:16 (1242 KB
// against 524); it reads about 1.1x (369 KB against 343).
func TestColdScheduleAllocScalesWithDesign(t *testing.T) {
	for _, s := range []sched.Scheduler{sched.ETF{}, sched.MH{}} {
		allocPerSchedule := func(spec string) uint64 {
			doc, err := json.Marshal(specMachine(t, spec))
			if err != nil {
				t.Fatal(err)
			}
			var samples []uint64
			for i := 0; i < 4; i++ { // the first warms the arena and the topology's tables and is dropped
				flat, _ := runnerDesign(t, 20, 25) // 501 tasks
				m := decodedMachine(t, doc)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				sc, err := s.Schedule(flat.Graph, m)
				if err != nil {
					t.Fatal(err)
				}
				sc.Finalize()
				runtime.ReadMemStats(&after)
				samples = append(samples, after.TotalAlloc-before.TotalAlloc)
			}
			samples = samples[1:]
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			return samples[1]
		}
		small, large := allocPerSchedule("ring:16"), allocPerSchedule("ring:128")
		ratio := float64(large) / float64(small)
		t.Logf("%s: KB allocated per cold schedule: ring:16 %d, ring:128 %d (%.2fx)", s.Name(), small>>10, large>>10, ratio)
		if ratio > 1.25 {
			t.Errorf("%s: a cold ring:128 schedule allocates %.2fx a ring:16 one (%d vs %d bytes), want at most 1.25x", s.Name(), ratio, large, small)
		}
	}
}

// TestCachedPredictionRetention guards what a full schedule cache of
// predictions keeps alive apart from the request path: 128 cold MH
// schedules of the 501-task design on ring:128, each with its own
// decoded machine and its own graph from graph.Flatten, which no
// request decoded or bound to a shape (TestServedPredictionRetention
// posts them through a server). They retain about 56 MB; 101 MB while
// every machine kept its own communication table and every index a
// P×P traffic matrix and two maps of slot copies.
func TestCachedPredictionRetention(t *testing.T) {
	doc, err := json.Marshal(specMachine(t, "ring:128"))
	if err != nil {
		t.Fatal(err)
	}
	predict := func() (*graph.Flat, *sched.Schedule) {
		flat, _ := runnerDesign(t, 20, 25) // 501 tasks
		sc, err := (sched.MH{}).Schedule(flat.Graph, decodedMachine(t, doc))
		if err != nil {
			t.Fatal(err)
		}
		sc.Finalize()
		return flat, sc
	}
	predict() // warms the arena and the topology's tables, which a server keeps anyway
	type entry struct {
		flat *graph.Flat
		sc   *sched.Schedule
	}
	held := make([]entry, 0, 128)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for len(held) < cap(held) {
		flat, sc := predict()
		held = append(held, entry{flat, sc})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("128 cached ring:128 predictions retain %.1f MB", mb)
	if mb > 70 {
		t.Errorf("128 cached ring:128 predictions retain %.1f MB, want at most 70 MB", mb)
	}
}

// TestServedPredictionRetention guards what a server keeps after 128
// predictions posted as documents: weight variants of the 501-task
// design on ring:128, each decoded, opened and scheduled by MH, filling
// the schedule cache. Every entry's flat binds its weights onto the
// design's one interned shape and owns only its task nodes and id
// index. They retain about 29 MB; 56 MB while every entry kept its own
// flattening, which pinned its arcs, arc lists and decoded strings.
func TestServedPredictionRetention(t *testing.T) {
	p := layeredProject(t, "ring:128")
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, 129)
	for i := range bodies {
		eachTask(p.Design, func(n *graph.Node) { n.Work = 10 + rng.Int63n(20) })
		var err error
		if bodies[i], err = json.Marshal(p); err != nil {
			t.Fatal(err)
		}
	}
	h := serve.New(serve.Options{}).Handler()
	post := func(body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run?mode=schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	post(bodies[0]) // warms the arena and the topology's tables and interns the shape; its entry is evicted below
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, body := range bodies[1:] {
		post(body)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	runtime.KeepAlive(bodies)
	mb := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20)
	t.Logf("128 served ring:128 predictions retain %.1f MB", mb)
	if mb > 40 {
		t.Errorf("128 served ring:128 predictions retain %.1f MB, want at most 40 MB", mb)
	}
}

// TestRunAllocCeiling guards what one request of the harness's run-wide
// workload allocates inside exec: the 501 tasks in virtual time on a
// 32-processor ring, on a schedule that has run before (as a cached one
// has). It reads about 0.46 MB in 1 700 allocations — the trace, logged
// once by the workers into one array that is also the partial and the
// result, each processor's slot array, which holds its tasks' numbered
// variables, and the per-processor fixtures. It read 0.59 MB in 3 100
// while every task built a name-keyed environment, 0.85 MB while the partial copied the workers' logs,
// 2.4 MB in 5 800 when every run rebuilt the schedule's expectation
// tables, grew its logs by doubling and put each message on the heap,
// and 4.96 MB when every task also seeded a random generator it never
// drew from.
func TestRunAllocCeiling(t *testing.T) {
	flat, inputs := runnerDesign(t, 20, 25) // 501 tasks
	sc := specSchedule(t, flat, "ring:32")
	run := func() {
		if _, err := (&exec.Runner{Inputs: inputs, VirtualTime: true}).Run(sc, flat); err != nil {
			t.Fatal(err)
		}
	}
	run() // compiles the schedule's era, once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	allocs := after.Mallocs - before.Mallocs
	if mb > 0.53 {
		t.Errorf("a ring:32 run of the 501-task design allocated %.2f MB, want at most 0.53 MB", mb)
	}
	if allocs > 1950 {
		t.Errorf("a ring:32 run of the 501-task design made %d allocations, want at most 1950", allocs)
	}
	t.Logf("a ring:32 run of the 501-task design allocated %.2f MB in %d allocations", mb, allocs)
}

// TestReleasedRunAllocCeiling is TestRunAllocCeiling for a run whose
// result is released once read, as the server releases every reply's:
// the next run logs into the same log and carves its processors'
// arrivals and variables from the same slabs, so what is left is each
// processor's fixtures and local store. It reads 0.13 MB on a 2-core
// x86-64 host, against 0.43 MB unreleased.
func TestReleasedRunAllocCeiling(t *testing.T) {
	flat, inputs := runnerDesign(t, 20, 25) // 501 tasks
	sc := specSchedule(t, flat, "ring:32")
	run := func() {
		res, err := (&exec.Runner{Inputs: inputs, VirtualTime: true}).Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	run() // compiles the schedule's era and leaves a log to reuse
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	if mb > 0.15 {
		t.Errorf("a released ring:32 run of the 501-task design allocated %.3f MB, want at most 0.15 MB", mb)
	}
	t.Logf("a released ring:32 run of the 501-task design allocated %.3f MB in %d allocations", mb, after.Mallocs-before.Mallocs)
}

// TestNoFalseDeadlockOnAStarvedHost runs the regime that used to need a
// timeout raised: 16 concurrent in-process runs of the 501-task design
// on a 32-processor ring, time-sliced on one core that four spinning
// goroutines also want. A run's deadlock detector counts blocked
// processors instead of timing them, so starving a healthy run of CPU
// slows it and nothing else: every request answers 200 with the same
// outputs and the server counts no failure.
func TestNoFalseDeadlockOnAStarvedHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var stop atomic.Bool
	defer stop.Store(true)
	for i := 0; i < 4; i++ {
		go func() {
			for !stop.Load() {
			}
		}()
	}
	s := serve.New(serve.Options{MaxConcurrent: 16, TenantCap: -1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	body, err := json.Marshal(layeredProject(t, "ring:32"))
	if err != nil {
		t.Fatal(err)
	}

	const clients = 16
	replies := make([]serve.RunResponse, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				msg, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, msg)
				return
			}
			errs[i] = json.NewDecoder(resp.Body).Decode(&replies[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(replies[i].Outputs) == 0 || !reflect.DeepEqual(replies[i].Outputs, replies[0].Outputs) {
			t.Errorf("request %d outputs %v, want %v", i, replies[i].Outputs, replies[0].Outputs)
		}
	}
	if st := s.Stats(); st.Runs.Failed != 0 || st.Runs.Total != clients {
		t.Errorf("server counted %d failed of %d runs, want 0 of %d", st.Runs.Failed, st.Runs.Total, clients)
	}
}

// BenchmarkRunnerTCP distributes the 501-task design over two worker
// daemons on loopback TCP (connection handshakes included — each
// iteration is a full run): workers dial each other, data frames
// coalesce per peer, and acks batch into the flushes. The delta
// against BenchmarkRunnerWall is the wire transport's overhead.
func BenchmarkRunnerTCP(b *testing.B) {
	flat, inputs := runnerDesign(b, 20, 25) // 501 tasks
	m := hypercubeMachine(b, 3)
	sc, err := (sched.ETF{}).Schedule(flat.Graph, m)
	if err != nil {
		b.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var addrs []string
	for i := 0; i < 2; i++ {
		ready := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wire.ServeWorker(ctx, wire.TCP(), "127.0.0.1:0", wire.WorkerOptions{},
				func(bound string) { ready <- bound })
		}()
		addrs = append(addrs, <-ready)
	}
	b.Cleanup(func() {
		cancel()
		wg.Wait()
	})

	co := &wire.Coordinator{
		Transport: wire.TCP(), Addrs: addrs,
		Runner: &exec.Runner{Inputs: inputs},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := co.Run(ctx, sc, flat); err != nil {
			b.Fatal(err)
		}
	}
}

// countingTransport counts what a run's set-up puts on the wire: the
// dials made through it — a fleet's coordinators', or the worker
// daemons' mesh dials — and the schedule bytes start bundles carry (the
// first blob of the bundle's envelope: 94 KB for this design, empty when
// the daemon holds the schedule). On a coordinator's connections it also
// counts the idle frames read: the members' reports, probe answers
// among them.
type countingTransport struct {
	wire.Transport
	dials, blobBytes, reports atomic.Int64
}

func (t *countingTransport) Dial(ctx context.Context, addr string) (wire.Conn, error) {
	t.dials.Add(1)
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return startCountingConn{c, &t.blobBytes, &t.reports}, nil
}

type startCountingConn struct {
	wire.Conn
	n, reports *atomic.Int64
}

func (c startCountingConn) ReadFrame() (wire.Frame, error) {
	f, err := c.Conn.ReadFrame()
	if err == nil && f.Type == wire.TIdle {
		c.reports.Add(1)
	}
	return f, err
}

func (c startCountingConn) WriteFrame(f wire.Frame) error {
	// Envelope: 0x00, u32 JSON length, JSON, u32 blob count, then each
	// blob behind its u32 length.
	if p := f.Payload; f.Type == wire.TStart && len(p) > 5 && p[0] == 0 {
		if at := 5 + int(binary.BigEndian.Uint32(p[1:])) + 4; at+4 <= len(p) {
			c.n.Add(int64(binary.BigEndian.Uint32(p[at:])))
		}
	}
	return c.Conn.WriteFrame(f)
}

// BenchmarkFleetRun is the harness's run-fleet request below HTTP: the
// 501-task design, ETF on hypercube:3, run wall-clock through a Fleet on
// two worker daemons over loopback TCP by two callers at once. Beside
// time and memory it reports what a run's set-up put on the wire: the
// coordinators' dials/op, the daemons' meshDials/op and blobKB/op. Only
// the first runs pay them: each caller's first run dials both members
// and its mesh link, and the first run on each daemon ships the
// schedule; later runs lease the links earlier runs parked. A run whose
// goodbyes miss goodbyeWait (a host too loaded to answer in 100 ms)
// closes its links, and the next run on them dials again. It also
// reports what a run puts on its data plane: the daemons' sends/op
// (messages handed to the remote plane) and flushes/op (the bursts that
// put them on their way), summed from each member's counters into the
// runs' shared exec.Stats; sends/flushes is the batching achieved. And it
// reports reports/op: the members' reports the coordinator read, one per
// quiet spell of a member and one per probe answered — what deciding a
// run's end (and a deadlock) by counting costs the wire.
func BenchmarkFleetRun(b *testing.B) {
	flat, inputs := runnerDesign(b, 20, 25) // 501 tasks
	sc := specSchedule(b, flat, "hypercube:3")

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var addrs []string
	mesh := &countingTransport{Transport: wire.TCP()}
	for i := 0; i < 2; i++ {
		ready := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wire.ServeWorker(ctx, mesh, "127.0.0.1:0", wire.WorkerOptions{},
				func(bound string) { ready <- bound })
		}()
		addrs = append(addrs, <-ready)
	}
	tr := &countingTransport{Transport: wire.TCP()}
	fleet := &wire.Fleet{Transport: tr, Control: "127.0.0.1:0", Seed: addrs}
	if err := fleet.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		fleet.Close()
		cancel()
		wg.Wait()
	})

	const callers = 2
	stats := &exec.Stats{}
	b.ReportAllocs()
	b.ResetTimer()
	var next atomic.Int64
	var lanes sync.WaitGroup
	for c := 0; c < callers; c++ {
		lanes.Add(1)
		go func() {
			defer lanes.Done()
			for next.Add(1) <= int64(b.N) {
				if _, err := fleet.Run(ctx, &exec.Runner{Inputs: inputs, Stats: stats}, sc, flat); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	lanes.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
	b.ReportMetric(float64(tr.dials.Load())/float64(b.N), "dials/op")
	b.ReportMetric(float64(mesh.dials.Load())/float64(b.N), "meshDials/op")
	b.ReportMetric(float64(tr.blobBytes.Load())/1024/float64(b.N), "blobKB/op")
	st := stats.Snapshot()
	b.ReportMetric(float64(st.RemoteSends)/float64(b.N), "sends/op")
	b.ReportMetric(float64(st.RemoteFlushes)/float64(b.N), "flushes/op")
	b.ReportMetric(float64(tr.reports.Load())/float64(b.N), "reports/op")
}

// BenchmarkRunnerWall is the single-process wall-clock twin of
// BenchmarkRunnerTCP: identical design, schedule and machine, all
// processors on in-process channels. The TCP/Wall ratio isolates what
// the distributed message plane costs.
func BenchmarkRunnerWall(b *testing.B) {
	flat, inputs := runnerDesign(b, 20, 25) // 501 tasks
	m := hypercubeMachine(b, 3)
	sc, err := (sched.ETF{}).Schedule(flat.Graph, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &exec.Runner{Inputs: inputs}
		if _, err := r.Run(sc, flat); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFleetRunAllocCeiling guards what one run of the harness's
// run-fleet shape allocates, daemons and coordinator together: the
// 501-task design, ETF on hypercube:3, wall clock through a Fleet on
// two worker daemons over loopback TCP, one caller, averaged over four
// runs after a warm one (which dials and ships the schedule). The run's
// event log dominates it, and is made once: each daemon's workers log
// their share into the log the schedule's previous run there released,
// and that log is the partial; a result carries it by graph index with
// no string table, encoded straight into its frame; the coordinator
// decodes each member's events straight into the run's log. The
// daemons' mesh link is leased from the run before, so no run pays a
// fresh connection's four 64 KB buffers. It reads about 0.81 MB on a
// 2-core x86-64 host; 1.28 MB while each daemon made a new log per run
// and the coordinator decoded each result into an array of its own and
// then copied it into the run's log, 1.55 MB while each run dialled its
// mesh link, and 2.40 MB while the log was copied into the partial,
// re-interned into a string table per result, copied into the frame and
// merged by regrowing the first partial.
func TestFleetRunAllocCeiling(t *testing.T) {
	flat, inputs := runnerDesign(t, 20, 25) // 501 tasks
	sc := specSchedule(t, flat, "hypercube:3")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var addrs []string
	for i := 0; i < 2; i++ {
		ready := make(chan string, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			wire.ServeWorker(ctx, wire.TCP(), "127.0.0.1:0", wire.WorkerOptions{},
				func(bound string) { ready <- bound })
		}()
		addrs = append(addrs, <-ready)
	}
	fleet := &wire.Fleet{Transport: wire.TCP(), Control: "127.0.0.1:0", Seed: addrs}
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		fleet.Close()
		cancel()
		wg.Wait()
	}()
	run := func() {
		if _, err := fleet.Run(ctx, &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
			t.Fatal(err)
		}
	}
	run() // dials both daemons, ships the schedule, compiles the era
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / runs
	t.Logf("a fleet run of the 501-task design allocated %.2f MB", mb)
	if mb > 0.90 {
		t.Errorf("a fleet run of the 501-task design allocated %.2f MB, want at most 0.90 MB", mb)
	}
}
