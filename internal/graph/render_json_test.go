package graph

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDOTContainsShapes(t *testing.T) {
	g := twoLevelDesign()
	dot := g.DOT()
	for _, want := range []string{
		"digraph", "shape=ellipse", "shape=box", "doubleoctagon",
		"cluster_sv", "prep", `"sv/s1"`, "->",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestASCIIListsLevelsAndArcs(t *testing.T) {
	g := Diamond(5, 3)
	s := g.ASCII()
	for _, want := range []string{"L0", "L1", "L2", "(a:5)", "(b:5)", "arcs:", "a -ab(3)-> b"} {
		if !strings.Contains(s, want) {
			t.Errorf("ASCII missing %q:\n%s", want, s)
		}
	}
}

func TestASCIIOnCyclicGraphReportsError(t *testing.T) {
	g := New("cyc")
	g.MustAddTask("a", "", 1)
	g.MustAddTask("b", "", 1)
	g.MustConnect("a", "b", "x", 0)
	g.MustConnect("b", "a", "y", 0)
	if s := g.ASCII(); !strings.Contains(s, "cycle") {
		t.Errorf("ASCII of cyclic graph = %q", s)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := twoLevelDesign()
	g.Node("prep").Routine = "x = a * 2"
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Name != g.Name || back.Len() != g.Len() || back.NumArcs() != g.NumArcs() {
		t.Fatalf("round trip changed shape: %s vs %s", back.Summary(), g.Summary())
	}
	if back.Node("prep").Routine != "x = a * 2" {
		t.Errorf("routine lost: %q", back.Node("prep").Routine)
	}
	sub := back.Node("sv").Sub
	if sub == nil || sub.Len() != 4 {
		t.Fatalf("subgraph lost: %v", sub)
	}
	// Round-trip again and compare bytes for stability.
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("JSON encoding not stable across round trip")
	}
}

func TestJSONRejectsBadKind(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"name":"x","nodes":[{"id":"a","kind":"widget"}]}`), &g)
	if err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestJSONRejectsSubWithoutGraph(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"name":"x","nodes":[{"id":"a","kind":"sub"}]}`), &g)
	if err == nil {
		t.Error("sub node without subgraph accepted")
	}
}

func TestJSONRejectsDanglingArc(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"name":"x","nodes":[{"id":"a","kind":"task"}],"arcs":[{"from":"a","to":"zz"}]}`), &g)
	if err == nil {
		t.Error("dangling arc accepted")
	}
}

// TestJSONRejectsSubgraphOnNonSub: only a sub node has a lower level. A
// task carrying one used to decode, and the subgraph went nowhere.
func TestJSONRejectsSubgraphOnNonSub(t *testing.T) {
	var g Graph
	err := json.Unmarshal([]byte(`{"name":"x","nodes":[{"id":"a","kind":"task","sub":{"name":"inner","nodes":[],"arcs":[]}}]}`), &g)
	if err == nil || !strings.Contains(err.Error(), `task node "a" carries a subgraph`) {
		t.Errorf("task with a subgraph: err = %v, want one naming node a", err)
	}
}
