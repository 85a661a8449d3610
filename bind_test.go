package banger_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/project"
	"repro/internal/sched"
)

// eachTask calls f on every task of the design, subgraphs included.
func eachTask(g *graph.Graph, f func(n *graph.Node)) {
	for _, n := range g.Nodes() {
		if n.Kind == graph.KindTask {
			f(n)
		}
		if n.Kind == graph.KindSub && n.Sub != nil {
			eachTask(n.Sub, f)
		}
	}
}

// TestKnownShapesBindAsTheyFlatten: a project whose design differs from
// one opened before in task work alone binds its work onto that one's
// shape, and the flat it gets is the design's flattening, fingerprint
// included. It covers the builtins (lu3x3 nests subgraphs),
// conformance designs (some nest one) and the harness design, each
// under random weights. The examples that build their own designs
// (quickstart, editdistance, montecarlo) check theirs in their own
// packages; heat, ludecomp and pipeline open builtins, and calculator
// builds no design.
func TestKnownShapesBindAsTheyFlatten(t *testing.T) {
	var projects []*project.Project
	for _, name := range project.BuiltinNames() {
		p, err := project.Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		projects = append(projects, p)
	}
	for seed := int64(1); seed <= 20; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		projects = append(projects, &project.Project{Name: fmt.Sprint("conform-", seed), Design: c.Design, Machine: c.Machine, Inputs: c.Inputs})
	}
	projects = append(projects, layeredProject(t, "ring:128"))

	rng := rand.New(rand.NewSource(1))
	for _, p := range projects {
		first, err := p.Flatten()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for draw := 0; draw < 5; draw++ {
			eachTask(p.Design, func(n *graph.Node) { n.Work = rng.Int63n(100) })
			got, err := p.Flatten()
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			want, err := p.Design.Flatten()
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if arcs := got.Graph.Arcs(); len(arcs) > 0 && &arcs[0] != &first.Graph.Arcs()[0] {
				t.Fatalf("%s, draw %d: the flat was not bound to the shape of the first", p.Name, draw)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, draw %d: the bound flat differs from Flatten's", p.Name, draw)
			}
			if a, b := sched.Fingerprint(got, p.Machine, "mh"), sched.Fingerprint(want, p.Machine, "mh"); a != b {
				t.Fatalf("%s, draw %d: fingerprint %s, Flatten's %s", p.Name, draw, a, b)
			}
		}
	}
}

// TestCalibratingABoundFlatLeavesItsShapeAlone: calibrating, sharding
// and connecting the flat of an opened project whose shape was known
// write nothing into the shape, so the next open still gets the
// design's flattening.
func TestCalibratingABoundFlatLeavesItsShapeAlone(t *testing.T) {
	p, err := project.Builtin("lu3x3")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the first interns the shape, the second binds it
		env, err := core.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := env.CalibrateWork(); err != nil {
			t.Fatal(err)
		}
		env.Flat.Graph.MustConnect("fl21", "fl31", "extra", 3)
		if err := graph.ShardTask(env.Flat.Graph, "u22", 2, 1, graph.GatherSum(2, "u22")); err != nil {
			t.Fatal(err)
		}
	}
	got, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	want, err := p.Design.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("an open after editing bound flats differs from Flatten's")
	}
}
