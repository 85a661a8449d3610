package graph

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// nestedDesign is a three-level design in which one subgraph is used by
// two sub nodes, tasks sit before, between and after the sub nodes, and
// storage cells carry data between them and in and out.
func nestedDesign() *Graph {
	leaf := New("leaf")
	leaf.MustAddInput("p")
	leaf.MustAddTask("core", "core", 5).Routine = "q = p + 1"
	leaf.MustAddTask("side", "side", 2)
	leaf.MustAddOutput("q")
	leaf.MustConnect("p", "core", "p", 1)
	leaf.MustConnect("core", "side", "s", 2)
	leaf.MustConnect("side", "q", "q", 3)

	mid := New("mid")
	mid.MustAddInput("u")
	mid.MustAddTask("pre", "pre", 4)
	mid.MustAddSub("l1", "first leaf", leaf)
	mid.MustAddStorage("S", "s")
	mid.MustAddSub("l2", "second leaf", leaf)
	mid.MustAddOutput("v")
	mid.MustConnect("u", "pre", "u", 1)
	mid.MustConnect("pre", "l1", "p", 1)
	mid.MustConnect("l1", "S", "q", 0)
	mid.MustConnect("S", "l2", "p", 2)
	mid.MustConnect("l2", "v", "q", 1)

	top := New("top")
	top.MustAddStorage("IN", "x")
	top.MustAddTask("a", "head", 1)
	top.MustAddSub("m", "middle", mid)
	top.MustAddTask("z", "tail", 1)
	top.MustAddStorage("OUT", "y")
	top.MustConnect("IN", "a", "x", 2)
	top.MustConnect("a", "m", "u", 1)
	top.MustConnect("m", "z", "v", 1)
	top.MustConnect("z", "OUT", "y", 1)
	for _, id := range []NodeID{"b", "c"} { // three arcs out of a and into z leave their lists room to grow
		top.MustAddTask(id, "", 1)
		top.MustConnect("a", id, "x", 1)
		top.MustConnect(id, "z", string(id), 1)
	}
	return top
}

// shapeDesigns are the designs the shape tests draw from.
func shapeDesigns() map[string]func() *Graph {
	return map[string]func() *Graph{"two-level": twoLevelDesign, "nested": nestedDesign}
}

// setWork gives every task of the design, subgraphs included, a weight
// drawn by w.
func setWork(g *Graph, w func() int64) {
	for _, n := range g.nodes {
		if n.Kind == KindTask {
			n.Work = w()
		}
		if nests(n) {
			setWork(n.Sub, w)
		}
	}
}

func mustShape(t *testing.T, g *Graph) *Shape {
	t.Helper()
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return NewShape(flat)
}

// TestShapeKeyCoversAllButWork: designs that differ in task work alone
// share a key, and one changed id, label, kind, routine, arc end, var,
// word count, graph name or nesting changes it.
func TestShapeKeyCoversAllButWork(t *testing.T) {
	base, _ := nestedDesign().ShapeKey()
	g := nestedDesign()
	setWork(g, func() int64 { return 99 })
	if key, work := g.ShapeKey(); key != base {
		t.Error("a change of task work changed the key")
	} else if len(work) != 9 || work[0] != 99 {
		t.Errorf("work = %v, want 9 tasks of 99", work)
	}
	sub := func(g *Graph, id NodeID) *Graph { return g.Node(id).Sub }
	edits := map[string]func(g *Graph){
		"id":          func(g *Graph) { g.Node("a").ID = "a2" },
		"label":       func(g *Graph) { g.Node("z").Label = "end" },
		"kind":        func(g *Graph) { g.Node("OUT").Kind = KindOutput },
		"routine":     func(g *Graph) { sub(sub(g, "m"), "l1").Node("core").Routine = "q = p" },
		"arc from":    func(g *Graph) { g.arcs[3].From = "a" },
		"arc to":      func(g *Graph) { g.arcs[0].To = "z" },
		"var":         func(g *Graph) { sub(g, "m").arcs[0].Var = "w" },
		"words":       func(g *Graph) { sub(sub(g, "m"), "l2").arcs[1].Words = 7 },
		"graph name":  func(g *Graph) { sub(g, "m").Name = "mid2" },
		"nesting":     func(g *Graph) { sub(g, "m").Node("l2").Sub = New("leaf") },
		"sub dropped": func(g *Graph) { sub(g, "m").Node("l1").Sub = nil },
		"extra arc":   func(g *Graph) { g.MustConnect("a", "z", "extra", 1) },
	}
	for name, edit := range edits {
		g := nestedDesign()
		edit(g)
		if key, _ := g.ShapeKey(); key == base {
			t.Errorf("%s: the edit kept the key", name)
		}
	}
}

// TestBindMatchesFlatten: a shape bound to any design's work is the
// flattening of that design.
func TestBindMatchesFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, mk := range shapeDesigns() {
		g := mk()
		sh := mustShape(t, g)
		for draw := 0; draw < 5; draw++ {
			setWork(g, func() int64 { return rng.Int63n(100) })
			want, err := g.Flatten()
			if err != nil {
				t.Fatal(err)
			}
			_, work := g.ShapeKey()
			got, err := sh.Bind(work)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, draw %d: bound flat differs from Flatten's", name, draw)
			}
		}
	}
}

// TestBoundFlatLeavesItsShapeAlone: sharding, connecting and reweighing
// a bound flat write nothing into the shape or into another flat bound
// to it, so the next bind is still the design's flattening.
func TestBoundFlatLeavesItsShapeAlone(t *testing.T) {
	g := nestedDesign()
	sh := mustShape(t, g)
	_, work := g.ShapeKey()
	var flats [2]*Flat
	for i := range flats {
		var err error
		if flats[i], err = sh.Bind(work); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range flats {
		f.Graph.MustConnect("a", "z", "extra", int64(i+1))
		f.Graph.MustConnect("m/pre", "m/l2/side", "extra", int64(i+1))
	}
	for i, f := range flats {
		last := func(arcs []Arc) int64 { return arcs[len(arcs)-1].Words }
		if last(f.Graph.Arcs()) != int64(i+1) || last(f.Graph.SuccArcs("a")) != int64(i+1) || last(f.Graph.PredArcs("z")) != int64(i+1) {
			t.Fatalf("flat %d: its new arcs were overwritten by another flat's", i)
		}
	}
	flat := flats[0]
	if err := ShardTask(flat.Graph, "m/l1/core", 3, 1, "q = q_1"); err != nil {
		t.Fatal(err)
	}
	for _, n := range flat.Graph.Nodes() {
		n.Work = 1000
	}
	want, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	again, err := sh.Bind(work)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatal("a bind after editing an earlier bound flat differs from Flatten's")
	}
}

// TestHasherEncodesAcrossItsBuffer: strings longer than the buffer and
// numbers that straddle a spill hash as the plain length-prefixed
// encoding does.
func TestHasherEncodesAcrossItsBuffer(t *testing.T) {
	h, want := NewHasher(), sha256.New()
	for i, n := range []int{0, 3, 4090, 10000, 7, 4096} {
		s := strings.Repeat(string(rune('a'+i)), n)
		h.Str(s)
		h.Num(int64(i))
		want.Write(binary.LittleEndian.AppendUint64(nil, uint64(n)))
		want.Write([]byte(s))
		want.Write(binary.LittleEndian.AppendUint64(nil, uint64(i)))
	}
	if got := h.Sum(); !bytes.Equal(got[:], want.Sum(nil)) {
		t.Fatal("the buffered digest differs from the plain encoding's")
	}
}

// TestDocShapeKeyMatchesGraph: a design's wire form digests to the key
// and work order of the design itself, for every shape design and for
// the generators' graphs, and a document refused for a node's kind
// alone reports no key.
func TestDocShapeKeyMatchesGraph(t *testing.T) {
	designs := map[string]*Graph{"chain": Chain(5, 3, 2), "fork-join": ForkJoin(4, 2, 1), "diamond": Diamond(1, 7)}
	for name, mk := range shapeDesigns() {
		designs[name] = mk()
	}
	for name, g := range designs {
		setWork(g, func() int64 { return int64(len(name)) })
		wantKey, wantWork := g.ShapeKey()
		key, work, ok := g.Doc().ShapeKey()
		if !ok || key != wantKey || !reflect.DeepEqual(work, wantWork) {
			t.Errorf("%s: the doc's key %x, work %v, ok %v; the graph's %x, %v", name, key[:4], work, ok, wantKey[:4], wantWork)
		}
	}
	bad := map[string]func(d *Doc){
		"unknown kind":             func(d *Doc) { d.Nodes[1].Kind = "bogus" },
		"subgraph on a task":       func(d *Doc) { d.Nodes[1].Sub = &Doc{Name: "inner"} },
		"nested unknown kind":      func(d *Doc) { d.Nodes[2].Sub.Nodes[2].Sub.Nodes[0].Kind = "Task" },
		"nested subgraph on input": func(d *Doc) { d.Nodes[2].Sub.Nodes[0].Sub = &Doc{Name: "inner"} },
	}
	for name, edit := range bad {
		d := nestedDesign().Doc()
		edit(d)
		if _, err := FromDoc(d); err == nil {
			t.Fatalf("%s: FromDoc took the document", name)
		}
		if _, _, ok := d.ShapeKey(); ok {
			t.Errorf("%s: the document reports a key", name)
		}
	}
}
