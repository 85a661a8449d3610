package main

import (
	"math/rand"
	"reflect"
	"testing"

	banger "repro"
	"repro/internal/sched"
)

// TestDesignBindsAsItFlattens: opening a weight variant of the design
// binds its work onto the shape the first open interned, and gets the
// design's flattening, fingerprint included.
func TestDesignBindsAsItFlattens(t *testing.T) {
	m, err := banger.NewMachine("star-9", "star:9", banger.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := &banger.Project{Name: "montecarlo", Design: buildDesign(), Machine: m, Inputs: banger.Env{"n": banger.Num(drawsPerTask)}}
	first, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for draw := 0; draw < 5; draw++ {
		for _, n := range p.Design.Tasks() { // the design nests no subgraph
			n.Work = rng.Int63n(100)
		}
		got, err := p.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Design.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if &got.Graph.Arcs()[0] != &first.Graph.Arcs()[0] {
			t.Fatalf("draw %d: the flat was not bound to the first open's shape", draw)
		}
		if !reflect.DeepEqual(got, want) || sched.Fingerprint(got, m, "mh") != sched.Fingerprint(want, m, "mh") {
			t.Fatalf("draw %d: the bound flat differs from Flatten's", draw)
		}
	}
}
