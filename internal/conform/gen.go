package conform

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

// topologies is the pool of target-machine shapes a case may draw,
// covering every built-in topology kind at small sizes.
var topologies = []string{
	"full:2", "full:3", "full:4",
	"hypercube:1", "hypercube:2", "hypercube:3",
	"star:3", "star:4",
	"ring:4", "chain:3",
	"mesh:2x2", "torus:2x2", "tree:2x3",
}

// heuristics is the pool of schedulers a case may draw. MH is left out
// until the virtual-time runner starts a consumer no earlier than its
// recorded routed arrival; the simulator already replays MH's link
// contention exactly (see docs/TESTING.md).
var heuristics = []string{"serial", "hlfet", "etf", "ish", "dsh", "pack", "bsp"}

// Generate draws the conformance case for a seed. The same seed always
// yields the same case: design shape, routines, machine, heuristic,
// inputs and fault plan are all functions of the seed alone.
func Generate(seed int64) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed, Inputs: pits.Env{}}

	nIn := 1 + rng.Intn(2)
	inVars := make([]string, nIn)
	for i := range inVars {
		inVars[i] = fmt.Sprintf("x%d", i)
		c.Inputs[inVars[i]] = pits.Num(float64(1 + rng.Intn(9)))
	}
	c.Design = genDesign(rng, seed, inVars)

	spec := topologies[rng.Intn(len(topologies))]
	topo, err := machine.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	p := machine.Params{
		ProcSpeed:   int64(1 + rng.Intn(2)),
		TaskStartup: machine.Time(rng.Intn(3)),
		MsgStartup:  machine.Time(1 + rng.Intn(8)),
		WordTime:    machine.Time(1 + rng.Intn(2)),
	}
	c.Machine, err = machine.New(spec, topo, p)
	if err != nil {
		return nil, err
	}
	c.Heuristic = heuristics[rng.Intn(len(heuristics))]

	// Fault plans are drawn against the actual schedule so they name
	// real processors and real cross-processor messages.
	_, sc, err := c.prepare()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	if rng.Intn(100) < 40 {
		c.Faults = drawFaults(rng, sc)
	}
	// Fleet churn stays separate from fault plans: a replan barrier
	// re-sends in-flight messages outside the fault injector, so mixing
	// the two would blur which mechanism an oracle failure implicates.
	// Churn needs at least two workers, i.e. a multi-processor machine.
	if c.Faults == nil && c.Machine.NumPE() > 1 && rng.Intn(100) < 25 {
		c.Churn = drawChurn(rng, 2)
	}
	return c, nil
}

// GenerateLost draws the case for seed and breaks it on purpose: its
// fault plan becomes one dropped copy of a message between two
// processors, which nothing resends (the case is Lost), and it has no
// churn. It is nil when the schedule sends no message between
// processors.
func GenerateLost(seed int64) (*Case, error) {
	c, err := Generate(seed)
	if err != nil {
		return nil, err
	}
	_, sc, err := c.prepare()
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	var cross []sched.Msg
	for _, m := range sc.Msgs {
		if m.FromPE != m.ToPE {
			cross = append(cross, m)
		}
	}
	if len(cross) == 0 {
		return nil, nil
	}
	m := cross[rand.New(rand.NewSource(seed)).Intn(len(cross))]
	c.Faults = &exec.FaultPlan{Faults: []exec.Fault{{Kind: exec.FaultDrop, From: m.From, To: m.To, Var: m.Var, Count: 1}}}
	c.Churn, c.Lost = nil, true
	return c, nil
}

// genDesign builds a random layered dataflow design: input storage
// feeding a first layer, 1–3 middle layers combining their
// predecessors with straight-line arithmetic, optionally one layer
// wrapped in a decomposable sub-node (exercising hierarchy and port
// binding through Flatten), and one or two sinks writing external
// outputs, sometimes printing. Routines are deterministic PITS — no
// rand(), no division — so every engine computes identical values and
// calibration is exact.
func genDesign(rng *rand.Rand, seed int64, inVars []string) *graph.Graph {
	g := graph.New(fmt.Sprintf("conform-%d", seed))
	g.MustAddStorage("IN", "inputs")
	layers := 2 + rng.Intn(3)
	width := 1 + rng.Intn(3)
	words := func() int64 { return int64(1 + rng.Intn(3)) }

	prevVars := make([]string, width)
	prevNode := make([]graph.NodeID, width)
	for i := 0; i < width; i++ {
		id := graph.NodeID(fmt.Sprintf("t0_%d", i))
		v := fmt.Sprintf("v0_%d", i)
		x := inVars[rng.Intn(len(inVars))]
		n := g.MustAddTask(id, v, 1)
		n.Routine = fmt.Sprintf("%s = %s * %d + %d", v, x, 1+rng.Intn(4), rng.Intn(5))
		g.MustConnect("IN", id, x, words())
		prevVars[i], prevNode[i] = v, id
	}

	subLayer := -1
	if layers >= 3 && rng.Intn(2) == 0 {
		subLayer = 1 + rng.Intn(layers-2)
	}
	ops := []string{"+", "-", "*"}
	for l := 1; l < layers; l++ {
		type taskSpec struct {
			v, routine string
			uses       []int
		}
		specs := make([]taskSpec, width)
		curVars := make([]string, width)
		for i := 0; i < width; i++ {
			v := fmt.Sprintf("v%d_%d", l, i)
			uses := []int{i}
			if width > 1 && rng.Intn(2) == 0 {
				uses = append(uses, (i+1)%width)
			}
			var routine string
			if len(uses) == 2 {
				routine = fmt.Sprintf("%s = %s %s %s * %d",
					v, prevVars[uses[0]], ops[rng.Intn(len(ops))], prevVars[uses[1]], 1+rng.Intn(3))
			} else {
				routine = fmt.Sprintf("%s = %s %s %d",
					v, prevVars[uses[0]], ops[rng.Intn(len(ops))], 1+rng.Intn(5))
			}
			specs[i] = taskSpec{v: v, routine: routine, uses: uses}
			curVars[i] = v
		}
		curNode := make([]graph.NodeID, width)
		if l == subLayer {
			// Wrap the whole layer in one decomposable node. Boundary
			// port ids double as the variable names they carry: the
			// enclosing arcs bind to them by name during Flatten.
			sub := graph.New(fmt.Sprintf("layer%d", l))
			used := map[int]bool{}
			for _, s := range specs {
				for _, u := range s.uses {
					used[u] = true
				}
			}
			cols := make([]int, 0, len(used))
			for u := range used {
				cols = append(cols, u)
			}
			sort.Ints(cols)
			for _, u := range cols {
				sub.MustAddInput(graph.NodeID(prevVars[u]))
			}
			for i, s := range specs {
				id := graph.NodeID(fmt.Sprintf("i%d_%d", l, i))
				n := sub.MustAddTask(id, s.v, 1)
				n.Routine = s.routine
				for _, u := range s.uses {
					sub.MustConnect(graph.NodeID(prevVars[u]), id, prevVars[u], words())
				}
				sub.MustAddOutput(graph.NodeID(s.v))
				sub.MustConnect(id, graph.NodeID(s.v), s.v, words())
			}
			subID := graph.NodeID(fmt.Sprintf("sub%d", l))
			g.MustAddSub(subID, fmt.Sprintf("layer %d", l), sub)
			for _, u := range cols {
				g.MustConnect(prevNode[u], subID, prevVars[u], words())
			}
			for i := range specs {
				curNode[i] = subID
			}
		} else {
			for i, s := range specs {
				id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
				n := g.MustAddTask(id, s.v, 1)
				n.Routine = s.routine
				for _, u := range s.uses {
					g.MustConnect(prevNode[u], id, prevVars[u], words())
				}
				curNode[i] = id
			}
		}
		prevVars, prevNode = curVars, curNode
	}

	snk := g.MustAddTask("snk", "sink", 1)
	terms := make([]string, width)
	for i := 0; i < width; i++ {
		terms[i] = prevVars[i]
		g.MustConnect(prevNode[i], "snk", prevVars[i], words())
	}
	snk.Routine = "out = " + strings.Join(terms, " + ")
	if rng.Intn(2) == 0 {
		snk.Routine += "\nprint \"sum \", out"
	}
	g.MustAddStorage("OUT", "result")
	g.MustConnect("snk", "OUT", "out", 1)

	if rng.Intn(100) < 40 {
		// A second sink taps one final-layer variable into its own
		// external output, so some cases have multiple result cells.
		i := rng.Intn(width)
		snk2 := g.MustAddTask("snk2", "sink 2", 1)
		snk2.Routine = fmt.Sprintf("out2 = %s * 3 + 1", prevVars[i])
		g.MustConnect(prevNode[i], "snk2", prevVars[i], words())
		g.MustAddStorage("OUT2", "result 2")
		g.MustConnect("snk2", "OUT2", "out2", 1)
	}
	return g
}

// drawFaults derives a fault plan from the schedule: possibly a crash
// of a busy processor (never on a single-processor machine — nothing
// could recover), plus up to two message faults on cross-processor
// messages. Returns nil when the schedule offers nothing to break.
func drawFaults(rng *rand.Rand, sc *sched.Schedule) *exec.FaultPlan {
	plan := &exec.FaultPlan{}
	if sc.Machine.NumPE() > 1 && rng.Intn(100) < 50 {
		var busy []int
		for pe := 0; pe < sc.Machine.NumPE(); pe++ {
			if len(sc.PESlots(pe)) > 0 {
				busy = append(busy, pe)
			}
		}
		// Only crash when at least two processors hold work: recovery
		// needs both a survivor and surviving results to matter.
		if len(busy) > 1 {
			pe := busy[rng.Intn(len(busy))]
			plan.Faults = append(plan.Faults, exec.Fault{
				Kind: exec.FaultCrash, PE: pe, Slot: rng.Intn(len(sc.PESlots(pe))),
			})
		}
	}
	var cross []sched.Msg
	for _, m := range sc.Msgs {
		if m.FromPE != m.ToPE {
			cross = append(cross, m)
		}
	}
	kinds := []exec.FaultKind{exec.FaultDrop, exec.FaultDup, exec.FaultDelay, exec.FaultCorrupt}
	for n := rng.Intn(3); n > 0 && len(cross) > 0; n-- {
		m := cross[rng.Intn(len(cross))]
		f := exec.Fault{Kind: kinds[rng.Intn(len(kinds))], From: m.From, To: m.To, Var: m.Var, Count: 1}
		if f.Kind == exec.FaultDelay {
			f.Delay = machine.Time(50 + rng.Intn(450))
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil
	}
	return plan
}
