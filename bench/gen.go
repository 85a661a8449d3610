package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
)

// The design every workload posts: a layered calculator of
// layers×width real PITS tasks plus a sink (501 tasks at 20×25), the
// same shape as the repo's runner and serve benchmarks so the numbers
// stay comparable with the BENCH_PR*.json series this harness replaces.
const (
	designLayers = 20
	designWidth  = 25
	// missVariants is how many weight sets predict-miss cycles through.
	// Any count above the server's 128-entry LRU makes a cyclic stream
	// miss forever; 640 leaves five cache generations of slack for two
	// clients finishing out of order.
	missVariants = 640
	// inputPool is how many distinct input values the hit and run
	// workloads cycle through (same shape, different data).
	inputPool = 16
)

// layeredCalc builds the design. Every layer-l task combines two
// layer-(l-1) results, layer 0 reads the external input x, and the
// sink folds the last layer into the external output out.
func layeredCalc(layers, width int) *graph.Graph {
	task := func(l, i int) graph.NodeID { return graph.NodeID(fmt.Sprintf("t%d_%d", l, i)) }
	val := func(l, i int) string { return fmt.Sprintf("v%d_%d", l, i) }
	g := graph.New("layered-calc")
	g.MustAddStorage("IN", "x")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			n := g.MustAddTask(task(l, i), string(task(l, i)), 1)
			if l == 0 {
				n.Routine = fmt.Sprintf("%s = x + %d", val(l, i), i)
				g.MustConnect("IN", n.ID, "x", 1)
				continue
			}
			j := (i + 1) % width
			n.Routine = fmt.Sprintf("%s = %s + %s * 2", val(l, i), val(l-1, i), val(l-1, j))
			g.MustConnect(task(l-1, i), n.ID, val(l-1, i), 1)
			g.MustConnect(task(l-1, j), n.ID, val(l-1, j), 1)
		}
	}
	snk := g.MustAddTask("snk", "sink", 20)
	terms := make([]string, width)
	for i := range terms {
		terms[i] = val(layers-1, i)
		g.MustConnect(task(layers-1, i), "snk", terms[i], 1)
	}
	snk.Routine = "out = " + strings.Join(terms, " + ")
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)
	return g
}

// inputs is what one seed generates for one workload: the request
// bodies in posting order plus what the oracle needs to check each
// reply without decoding the body again.
type inputs struct {
	bodies [][]byte
	// weights[v] is variant v's task work, in design.Tasks() order.
	weights [][]int64
	// xs[i] is the input value of bodies[i] when the workload varies
	// data rather than weights (one weight set, len(xs) bodies).
	xs      []float64
	design  *graph.Graph
	machine *machine.Machine
}

func newMachine(topo string) (*machine.Machine, error) {
	t, err := machine.ParseTopology(topo)
	if err != nil {
		return nil, err
	}
	return machine.New(t.Name, t, machine.DefaultParams())
}

// setWeights writes one weight set into g's tasks, in Tasks() order.
func setWeights(g *graph.Graph, w []int64) {
	for i, n := range g.Tasks() {
		n.Work = w[i]
	}
}

// generate makes a workload's inputs from the seed. The seed picks
// task weights and input values, never the shape: the shape decides
// which layer a request exercises, and that must be the same on every
// run. variants > 1 varies the weights per body (every body has a new
// schedule fingerprint); variants == 1 fixes one weight set and varies
// the input value x (every body shares one fingerprint).
func generate(seed int64, topo string, variants int) (*inputs, error) {
	m, err := newMachine(topo)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{design: layeredCalc(designLayers, designWidth), machine: m}
	tasks := in.design.Tasks()
	for v := 0; v < variants; v++ {
		w := make([]int64, len(tasks))
		for i := range w {
			w[i] = int64(10 + (i*7)%20 + rng.Intn(8))
		}
		in.weights = append(in.weights, w)
	}
	x0 := float64(1 + rng.Intn(50))
	p := &project.Project{Name: "layered-calc", Design: in.design, Machine: m}
	marshal := func(w []int64, x float64) error {
		setWeights(in.design, w)
		p.Inputs = pits.Env{"x": pits.Num(x)}
		b, err := json.Marshal(p)
		in.bodies = append(in.bodies, b)
		return err
	}
	if variants > 1 {
		for _, w := range in.weights {
			if err := marshal(w, x0); err != nil {
				return nil, err
			}
		}
		return in, nil
	}
	for i := 0; i < inputPool; i++ {
		in.xs = append(in.xs, x0+float64(i))
		if err := marshal(in.weights[0], in.xs[i]); err != nil {
			return nil, err
		}
	}
	return in, nil
}
