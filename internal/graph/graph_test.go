package graph

import (
	"reflect"
	"strings"
	"testing"
)

func TestAddTaskAndLookup(t *testing.T) {
	g := New("g")
	n, err := g.AddTask("a", "task a", 10)
	if err != nil {
		t.Fatalf("AddTask: %v", err)
	}
	if n.ID != "a" || n.Kind != KindTask || n.Work != 10 {
		t.Errorf("node fields wrong: %+v", n)
	}
	if got := g.Node("a"); got != n {
		t.Errorf("Node(a) = %v, want %v", got, n)
	}
	if got := g.Node("missing"); got != nil {
		t.Errorf("Node(missing) = %v, want nil", got)
	}
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
}

func TestAddTaskDuplicateID(t *testing.T) {
	g := New("g")
	g.MustAddTask("a", "", 1)
	if _, err := g.AddTask("a", "", 2); err == nil {
		t.Fatal("duplicate id accepted")
	}
}

func TestAddTaskEmptyID(t *testing.T) {
	g := New("g")
	if _, err := g.AddTask("", "", 1); err == nil {
		t.Fatal("empty id accepted")
	}
}

func TestAddTaskNegativeWork(t *testing.T) {
	g := New("g")
	if _, err := g.AddTask("a", "", -1); err == nil {
		t.Fatal("negative work accepted")
	}
}

func TestConnectErrors(t *testing.T) {
	g := New("g")
	g.MustAddTask("a", "", 1)
	g.MustAddTask("b", "", 1)
	if err := g.Connect("missing", "b", "v", 1); err == nil {
		t.Error("missing source accepted")
	}
	if err := g.Connect("a", "missing", "v", 1); err == nil {
		t.Error("missing target accepted")
	}
	if err := g.Connect("a", "a", "v", 1); err == nil {
		t.Error("self arc accepted")
	}
	if err := g.Connect("a", "b", "v", -5); err == nil {
		t.Error("negative words accepted")
	}
	if err := g.Connect("a", "b", "v", 3); err != nil {
		t.Errorf("valid arc rejected: %v", err)
	}
}

func TestSuccPredNeighbors(t *testing.T) {
	g := Diamond(5, 2)
	succ := g.Successors("a")
	if len(succ) != 2 || succ[0] != "b" || succ[1] != "c" {
		t.Errorf("Successors(a) = %v", succ)
	}
	pred := g.Predecessors("d")
	if len(pred) != 2 || pred[0] != "b" || pred[1] != "c" {
		t.Errorf("Predecessors(d) = %v", pred)
	}
	if arcs := g.Succ("a"); len(arcs) != 2 || arcs[0].Var != "ab" {
		t.Errorf("Succ(a) = %v", arcs)
	}
	if arcs := g.Pred("a"); len(arcs) != 0 {
		t.Errorf("Pred(a) = %v, want empty", arcs)
	}
}

func TestTotals(t *testing.T) {
	g := Diamond(5, 3)
	if w := g.TotalWork(); w != 20 {
		t.Errorf("TotalWork = %d, want 20", w)
	}
	if w := g.TotalWords(); w != 12 {
		t.Errorf("TotalWords = %d, want 12", w)
	}
}

func TestCloneIsDeepForStructure(t *testing.T) {
	sub := New("sub")
	sub.MustAddInput("x")
	sub.MustAddTask("t", "", 4)
	sub.MustAddOutput("y")
	sub.MustConnect("x", "t", "x", 1)
	sub.MustConnect("t", "y", "y", 1)

	g := New("outer")
	g.MustAddTask("a", "", 2)
	g.MustAddSub("s", "sub call", sub)
	g.MustConnect("a", "s", "x", 1)

	c := g.Clone()
	// Mutating the clone must not affect the original.
	c.MustAddTask("extra", "", 1)
	c.Node("s").Sub.MustAddTask("inner-extra", "", 1)
	if g.Len() != 2 {
		t.Errorf("original node count changed: %d", g.Len())
	}
	if g.Node("s").Sub.Len() != 3 {
		t.Errorf("original subgraph changed: %d nodes", g.Node("s").Sub.Len())
	}
	if c.Node("s").Sub.Len() != 4 {
		t.Errorf("clone subgraph not mutated: %d nodes", c.Node("s").Sub.Len())
	}
}

func TestTasksFilters(t *testing.T) {
	g := New("g")
	g.MustAddTask("t1", "", 1)
	g.MustAddStorage("s1", "data")
	g.MustAddTask("t2", "", 1)
	ts := g.Tasks()
	if len(ts) != 2 || ts[0].ID != "t1" || ts[1].ID != "t2" {
		t.Errorf("Tasks = %v", ts)
	}
	if ts[0].Kind != KindTask || g.Node("s1").Kind != KindStorage {
		t.Errorf("kinds %v and %v, want a task and a storage cell", ts[0].Kind, g.Node("s1").Kind)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindTask: "task", KindStorage: "storage", KindSub: "sub",
		KindInput: "input", KindOutput: "output", Kind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestSummaryMentionsShape(t *testing.T) {
	s := Diamond(5, 3).Summary()
	for _, want := range []string{"diamond", "4 nodes", "4 arcs", "width 2", "depth 3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Summary %q missing %q", s, want)
		}
	}
}

// adjacencyDesign has what each graph-building path treats specially: a
// sub node holding a sub node, a storage chain, two arcs between one
// pair of nodes, and a task (z) with arcs on both sides to shard.
func adjacencyDesign() *Graph {
	leaf := New("leaf")
	leaf.MustAddInput("p")
	leaf.MustAddTask("core", "", 5)
	leaf.MustAddOutput("q")
	leaf.MustConnect("p", "core", "p", 1)
	leaf.MustConnect("core", "q", "q", 1)

	mid := New("mid")
	mid.MustAddInput("u")
	mid.MustAddSub("leafcall", "", leaf)
	mid.MustAddOutput("v")
	mid.MustConnect("u", "leafcall", "p", 1)
	mid.MustConnect("leafcall", "v", "q", 1)

	g := New("top")
	g.MustAddStorage("IN", "x")
	g.MustAddTask("a", "", 1)
	g.MustAddSub("m", "", mid)
	g.MustAddTask("z", "", 8)
	g.MustAddStorage("s1", "d1")
	g.MustAddStorage("s2", "d2")
	g.MustAddTask("r", "", 1)
	g.MustConnect("IN", "a", "x", 1)
	g.MustConnect("a", "m", "u", 1)
	g.MustConnect("a", "z", "k", 2)
	g.MustConnect("m", "z", "v", 1)
	g.MustConnect("a", "z", "j", 3)
	g.MustConnect("z", "s1", "d", 4)
	g.MustConnect("s1", "s2", "d", 0)
	g.MustConnect("s2", "r", "d", 0)
	g.MustConnect("z", "r", "e", 1)
	return g
}

// checkAdjacency holds g, and every graph nested in it, to the contract
// of the per-node arc lists: they are Arcs() filtered by endpoint, in
// insertion order, and an id the graph lacks has none.
func checkAdjacency(t *testing.T, stage string, g *Graph) {
	t.Helper()
	for _, n := range g.Nodes() {
		var succ, pred []Arc
		for _, a := range g.Arcs() {
			if a.From == n.ID {
				succ = append(succ, a)
			}
			if a.To == n.ID {
				pred = append(pred, a)
			}
		}
		for _, c := range []struct {
			side      string
			got, want []Arc
		}{
			{"SuccArcs", g.SuccArcs(n.ID), succ}, {"Succ", g.Succ(n.ID), succ},
			{"PredArcs", g.PredArcs(n.ID), pred}, {"Pred", g.Pred(n.ID), pred},
		} {
			if len(c.got) != len(c.want) || (len(c.want) > 0 && !reflect.DeepEqual(c.got, c.want)) {
				t.Errorf("%s: graph %q: %s(%q) = %v, want %v", stage, g.Name, c.side, n.ID, c.got, c.want)
			}
		}
		if n.Sub != nil {
			checkAdjacency(t, stage, n.Sub)
		}
	}
	if s, p := g.SuccArcs("no such node"), g.PredArcs("no such node"); s != nil || p != nil {
		t.Errorf("%s: graph %q: arcs of an unknown id = %v, %v, want nil", stage, g.Name, s, p)
	}
}

// TestAdjacencyFollowsArcs: whichever way a graph came to be — built by
// hand, decoded, flattened, sharded, cloned — its per-node arc lists
// agree with its arc list, and a clone shares none of them.
func TestAdjacencyFollowsArcs(t *testing.T) {
	g := adjacencyDesign()
	checkAdjacency(t, "built", g)

	decoded, err := FromDoc(g.Doc())
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, "FromDoc", decoded)
	if !reflect.DeepEqual(decoded.Arcs(), g.Arcs()) {
		t.Errorf("FromDoc arcs = %v, want %v", decoded.Arcs(), g.Arcs())
	}

	flat, err := decoded.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, "Flatten", flat.Graph)
	if flat.Graph.Node("m/leafcall/core") == nil || len(flat.Graph.PredArcs("r")) != 2 {
		t.Errorf("flat graph lost the nested task or the storage chain: %v", flat.Graph.Arcs())
	}

	sharded := flat.Graph.Clone()
	if err := ShardTask(sharded, "z", 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	checkAdjacency(t, "ShardTask", sharded)
	if len(sharded.PredArcs("z#2")) != 3 || len(sharded.PredArcs("z")) != 6 || len(sharded.SuccArcs("z")) != 2 {
		t.Errorf("sharded z: in %v, out %v, shard 2 in %v",
			sharded.PredArcs("z"), sharded.SuccArcs("z"), sharded.PredArcs("z#2"))
	}
	checkAdjacency(t, "Flatten, after its clone was sharded", flat.Graph)

	clone := g.Clone()
	checkAdjacency(t, "Clone", clone)
	version, succ, pred := g.Version(), g.Succ("a"), g.Pred("r")
	clone.MustConnect("a", "r", "late", 1)
	clone.Node("m").Sub.MustConnect("u", "v", "late", 1)
	checkAdjacency(t, "Clone, connected", clone)
	checkAdjacency(t, "built, after its clone was connected", g)
	if g.Version() != version || !reflect.DeepEqual(g.SuccArcs("a"), succ) || !reflect.DeepEqual(g.PredArcs("r"), pred) {
		t.Errorf("Connect on a clone reached the original: version %d -> %d, succ(a) %v, pred(r) %v",
			version, g.Version(), g.SuccArcs("a"), g.PredArcs("r"))
	}
}
