package conform

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
)

// Shrink reduces a diverging case to a local minimum that still shows
// at least one of the original report's oracle classes. It first
// rewrites the case onto its flattened design (dissolving hierarchy so
// reductions are simple node/arc surgery), then repeatedly applies the
// first reduction that keeps the case bad:
//
//   - drop one churn op;
//   - drop one injected fault;
//   - delete a task no other task depends on (and its arcs);
//   - delete one task-to-task arc, seeding the consumer's lost
//     variable with a constant so its routine still runs.
//
// budget bounds the number of candidate re-executions (each one runs
// all four engines). Shrink never returns a passing case: if a
// reduction stops reproducing the divergence it is discarded.
func Shrink(ctx context.Context, rep *Report, budget int) (*Case, *Report) {
	classes := rep.Classes()
	bad := func(c *Case) *Report {
		r, err := RunCase(ctx, c)
		if err != nil {
			return nil // infeasible reduction, not a divergence
		}
		for o := range r.Classes() {
			if classes[o] {
				return r
			}
		}
		return nil
	}

	best, bestRep := rep.Case, rep
	if flatCase, err := rebuildFlat(rep.Case); err == nil && budget > 0 {
		budget--
		if r := bad(flatCase); r != nil {
			best, bestRep = flatCase, r
		}
	}

	for budget > 0 {
		improved := false
		for _, cand := range reductions(best) {
			if budget == 0 {
				break
			}
			budget--
			if r := bad(cand); r != nil {
				best, bestRep = cand, r
				improved = true
				break // restart from the reduced case
			}
		}
		if !improved {
			break
		}
	}
	return best, bestRep
}

// rebuildFlat rewrites the case onto its flattened design: hierarchy is
// dissolved, storage cells are re-attached as one IN cell feeding every
// external input and one OUT cell collecting every external output.
// Re-flattening the rebuilt design yields the same task graph, so the
// case's behaviour is unchanged — but reductions no longer have to
// reason about sub-node port binding.
func rebuildFlat(c *Case) (*Case, error) {
	flat, err := c.Design.Flatten()
	if err != nil {
		return nil, err
	}
	g := graph.New(c.Design.Name + "~flat")
	for _, n := range flat.Graph.Nodes() {
		t := g.MustAddTask(n.ID, n.Label, 1)
		t.Routine = n.Routine
	}
	for _, a := range flat.Graph.Arcs() {
		g.MustConnect(a.From, a.To, a.Var, a.Words)
	}
	attachStorage(g, flat)
	cc := *c
	cc.Design = g
	return &cc, nil
}

// attachStorage adds IN/OUT storage cells wired to the flat graph's
// external bindings.
func attachStorage(g *graph.Graph, flat *graph.Flat) {
	var haveIn bool
	for _, id := range sortedKeys(flat.ExternalIn) {
		for _, v := range flat.ExternalIn[id] {
			if !haveIn {
				g.MustAddStorage("IN", "inputs")
				haveIn = true
			}
			g.MustConnect("IN", id, v, 1)
		}
	}
	// One cell per output variable: a storage cell may have at most one
	// writer, and distinct tasks may export distinct results.
	for _, id := range sortedKeys(flat.ExternalOut) {
		for _, v := range flat.ExternalOut[id] {
			cell := graph.NodeID("OUT:" + v)
			if g.Node(cell) == nil {
				g.MustAddStorage(cell, v)
			}
			g.MustConnect(id, cell, v, 1)
		}
	}
}

func sortedKeys(m map[graph.NodeID][]string) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// reductions enumerates the one-step simplifications of a flat-design
// case, cheapest first.
func reductions(c *Case) []*Case {
	var out []*Case

	// Churn ops drop first: they are the cheapest reduction, and a
	// divergence that survives without its fleet changes implicates the
	// engines, not the elasticity machinery.
	for i := range c.Churn {
		cc := *c
		cc.Churn = append(append([]ChurnOp(nil), c.Churn[:i]...), c.Churn[i+1:]...)
		if len(cc.Churn) == 0 {
			cc.Churn = nil
		}
		out = append(out, &cc)
	}

	if c.Faults != nil {
		for i := range c.Faults.Faults {
			cc := *c
			p := &exec.FaultPlan{Faults: append([]exec.Fault(nil), c.Faults.Faults...)}
			p.Faults = append(p.Faults[:i], p.Faults[i+1:]...)
			if len(p.Faults) == 0 {
				cc.Faults = nil
			} else {
				cc.Faults = p
			}
			out = append(out, &cc)
		}
	}

	g := c.Design
	taskCount := len(g.Tasks())
	for _, n := range g.Tasks() {
		if taskCount <= 1 {
			break
		}
		dependedOn := false
		for _, a := range g.SuccArcs(n.ID) {
			if t := g.Node(a.To); t != nil && t.Kind == graph.KindTask {
				dependedOn = true
				break
			}
		}
		if dependedOn {
			continue
		}
		if cc, ok := withoutTask(c, n.ID); ok {
			out = append(out, cc)
		}
	}

	for _, a := range g.Arcs() {
		from, to := g.Node(a.From), g.Node(a.To)
		if from == nil || to == nil || from.Kind != graph.KindTask || to.Kind != graph.KindTask {
			continue
		}
		out = append(out, withoutArc(c, a))
	}
	return out
}

// withoutTask rebuilds the design with one task (and its arcs) removed.
// Storage cells left with no arcs are dropped too.
func withoutTask(c *Case, victim graph.NodeID) (*Case, bool) {
	g := c.Design
	ng := graph.New(g.Name)
	for _, n := range g.Nodes() {
		if n.ID == victim {
			continue
		}
		switch n.Kind {
		case graph.KindTask:
			t := ng.MustAddTask(n.ID, n.Label, 1)
			t.Routine = n.Routine
		case graph.KindStorage:
			if storageOrphaned(g, n.ID, victim) {
				continue
			}
			ng.MustAddStorage(n.ID, n.Label)
		default:
			return nil, false // hierarchy: only flat designs are reduced
		}
	}
	for _, a := range g.Arcs() {
		if a.From == victim || a.To == victim {
			continue
		}
		if ng.Node(a.From) == nil || ng.Node(a.To) == nil {
			continue
		}
		ng.MustConnect(a.From, a.To, a.Var, a.Words)
	}
	cc := *c
	cc.Design = ng
	return &cc, true
}

// storageOrphaned reports whether removing victim leaves the storage
// cell with no arcs at all.
func storageOrphaned(g *graph.Graph, cell, victim graph.NodeID) bool {
	for _, a := range g.SuccArcs(cell) {
		if a.To != victim {
			return false
		}
	}
	for _, a := range g.PredArcs(cell) {
		if a.From != victim {
			return false
		}
	}
	return true
}

// withoutArc rebuilds the design with one task-to-task arc removed; the
// consumer's routine gains a constant binding for the variable it no
// longer receives, so it still evaluates.
func withoutArc(c *Case, victim graph.Arc) *Case {
	g := c.Design
	ng := graph.New(g.Name)
	for _, n := range g.Nodes() {
		switch n.Kind {
		case graph.KindTask:
			t := ng.MustAddTask(n.ID, n.Label, 1)
			t.Routine = n.Routine
			if n.ID == victim.To {
				t.Routine = fmt.Sprintf("%s = 1\n%s", victim.Var, n.Routine)
			}
		case graph.KindStorage:
			ng.MustAddStorage(n.ID, n.Label)
		}
	}
	skipped := false
	for _, a := range g.Arcs() {
		if !skipped && a == victim {
			skipped = true
			continue
		}
		if ng.Node(a.From) == nil || ng.Node(a.To) == nil {
			continue
		}
		ng.MustConnect(a.From, a.To, a.Var, a.Words)
	}
	cc := *c
	cc.Design = ng
	return &cc
}
