package graph

import "fmt"

// ShardTask implements the paper's future-work extension toward
// fine-grained parallelism: "machine-independent data-parallel
// constructs". It rewrites one primitive task into n data-parallel
// shards plus a gather task, entirely at the graph level, so
// scheduling, simulation, execution and code generation all apply
// unchanged.
//
// Each shard receives copies of the original incoming arcs and runs
// the original routine with two extra variables prepended: shard (its
// 1-based index) and nshards. Whatever output variables the original
// task fed to its successors are re-exported by shard k under the name
// "<var>_k" and sent to the gather task, whose routine (supplied by
// the caller) must combine v_1..v_n into each original variable v.
// The gather task inherits the original task's outgoing arcs and id,
// so consumers are untouched.
func ShardTask(g *Graph, id NodeID, n int, gatherWork int64, gatherRoutine string) error {
	if n < 2 {
		return fmt.Errorf("graph %q: sharding %q into %d pieces is pointless", g.Name, id, n)
	}
	orig := g.Node(id)
	if orig == nil {
		return fmt.Errorf("graph %q: no node %q", g.Name, id)
	}
	if orig.Kind != KindTask {
		return fmt.Errorf("graph %q: node %q is a %v, not a task", g.Name, id, orig.Kind)
	}
	in := g.Pred(id)
	out := g.Succ(id)
	outVars := map[string]int64{}
	for _, a := range out {
		if w, seen := outVars[a.Var]; !seen || a.Words > w {
			outVars[a.Var] = a.Words
		}
	}
	// Deterministic variable order for the rename epilogue.
	var vars []string
	for _, a := range out {
		if _, done := outVars[a.Var]; done {
			vars = append(vars, a.Var)
			delete(outVars, a.Var)
			outVars[a.Var] = -1 // keep key, mark emitted
		}
	}
	for _, a := range out {
		outVars[a.Var] = a.Words
	}

	// The original node becomes the gather task (keeps id and
	// outgoing arcs); its incoming arcs are re-pointed to the shards.
	shardWork := orig.Work / int64(n)
	if shardWork < 1 {
		shardWork = 1
	}
	routine := orig.Routine
	label := orig.Label
	orig.Label = label + " (gather)"
	orig.Work = gatherWork
	orig.Routine = gatherRoutine

	// Graph has no arc deletion: drop every arc and connect again all
	// but the original's incoming ones.
	arcs := g.arcs
	g.arcs = nil
	for _, nd := range g.nodes {
		nd.succ, nd.pred = nil, nil
	}
	for _, a := range arcs {
		if a.To != id {
			g.MustConnect(a.From, a.To, a.Var, a.Words) // it held a moment ago
		}
	}

	for k := 1; k <= n; k++ {
		sid := NodeID(fmt.Sprintf("%s#%d", id, k))
		prologue := fmt.Sprintf("shard = %d\nnshards = %d\n", k, n)
		epilogue := ""
		for _, v := range vars {
			epilogue += fmt.Sprintf("\n%s_%d = %s", v, k, v)
		}
		node, err := g.AddTask(sid, fmt.Sprintf("%s [%d/%d]", label, k, n), shardWork)
		if err != nil {
			return err
		}
		node.Routine = prologue + routine + epilogue
		for _, a := range in {
			if err := g.Connect(a.From, sid, a.Var, a.Words); err != nil {
				return err
			}
		}
		for _, v := range vars {
			if err := g.Connect(sid, id, fmt.Sprintf("%s_%d", v, k), outVars[v]); err != nil {
				return err
			}
		}
	}
	return nil
}

// GatherSum returns a gather routine that sums each variable over n
// shards: v = v_1 + ... + v_n for every listed variable. It covers the
// common reduction case so callers rarely hand-write gather code.
func GatherSum(n int, vars ...string) string {
	src := ""
	for _, v := range vars {
		src += v + " = "
		for k := 1; k <= n; k++ {
			if k > 1 {
				src += " + "
			}
			src += fmt.Sprintf("%s_%d", v, k)
		}
		src += "\n"
	}
	return src
}
