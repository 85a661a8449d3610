package project

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/conform"
	"repro/internal/graph"
	"repro/internal/pits"
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

// interned reports whether the table holds the design's shape.
func interned(g *graph.Graph) bool {
	key, _ := g.ShapeKey()
	shapesMu.Lock()
	defer shapesMu.Unlock()
	return shapes[key] != nil
}

// coldFlatten is Flatten with the shape table emptied first: the
// flattening and the checks themselves.
func coldFlatten(p *Project) (*graph.Flat, error) {
	shapesMu.Lock()
	clear(shapes)
	shapesMu.Unlock()
	return p.Flatten()
}

// sameOutcome fails the test unless two flattenings are equal: the same
// flat, or the same error text.
func sameOutcome(t testing.TB, what string, got *graph.Flat, gotErr error, want *graph.Flat, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	case gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("%s: error\n%v\nwant\n%v", what, gotErr, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: the flat differs", what)
	}
}

// TestFlattenNamesTheFirstMissingInput: of several unbound inputs, the
// error names the first in flat node order, every time. Ranging over
// the external-input map named either.
func TestFlattenNamesTheFirstMissingInput(t *testing.T) {
	lu, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New("two-inputs")
	g.MustAddStorage("A", "a")
	g.MustAddStorage("B", "b")
	g.MustAddTask("ta", "", 1).Routine = "x = a"
	g.MustAddTask("tb", "", 1).Routine = "y = b"
	g.MustConnect("A", "ta", "a", 1)
	g.MustConnect("B", "tb", "b", 1)
	p := &Project{Name: "p", Design: g, Machine: lu.Machine}
	const want = `project "p": task ta needs external input "a" which has no value`
	for i := 0; i < 200; i++ {
		if _, err := p.Flatten(); err == nil || err.Error() != want {
			t.Fatalf("call %d: %v, want %s", i, err, want)
		}
	}
}

// TestShapeTableIsDroppedWholesale: the 17th shape empties the table
// and is its one entry.
func TestShapeTableIsDroppedWholesale(t *testing.T) {
	lu, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	shapesMu.Lock()
	clear(shapes)
	shapesMu.Unlock()
	for i := 1; i <= maxShapes+1; i++ {
		g := graph.New(fmt.Sprintf("design-%d", i))
		g.MustAddTask("t", "", 1)
		if _, err := (&Project{Name: "p", Design: g, Machine: lu.Machine}).Flatten(); err != nil {
			t.Fatal(err)
		}
		want := i
		if i > maxShapes {
			want = 1
		}
		shapesMu.Lock()
		got := len(shapes)
		shapesMu.Unlock()
		if got != want || !interned(g) {
			t.Fatalf("after shape %d the table holds %d (this one: %v), want %d", i, got, interned(g), want)
		}
	}
}

// TestKnownShapeRefusesNegativeWork: negative work on a known shape,
// top-level and inside subgraphs, gets the error flattening gets,
// whatever tasks it falls on.
func TestKnownShapeRefusesNegativeWork(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Flatten(); err != nil {
		t.Fatal(err)
	}
	p.Design.Node("u22").Work = -1
	p.Design.Node("forward").Sub.Node("y2").Work = -5
	p.Design.Node("back").Sub.Node("x1").Work = -5
	if !interned(p.Design) {
		t.Fatal("the reweighed design is not a known shape")
	}
	_, got := p.Flatten()
	_, want := p.Design.Flatten()
	if got == nil || got.Error() != fmt.Sprintf("project %q: %v", p.Name, want) {
		t.Fatalf("got\n%v\nwant\nproject %q: %v", got, p.Name, want)
	}
	rng := rand.New(rand.NewSource(2))
	for draw := 0; draw < 60; draw++ {
		eachTask(p.Design, func(n *graph.Node) { n.Work = rng.Int63n(6) - 3 })
		got, gotErr := p.Flatten()
		want, wantErr := p.Design.Flatten()
		if wantErr != nil {
			wantErr = fmt.Errorf("project %q: %w", p.Name, wantErr)
		}
		sameOutcome(t, fmt.Sprint("draw ", draw), got, gotErr, want, wantErr)
	}
}

// TestFlattenWeightVariantsConcurrently: eight goroutines flatten
// weight variants of one design, each its own copy, all binding the
// same shape (run it under -race).
func TestFlattenWeightVariantsConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p, err := LU3x3()
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 20; i++ {
				eachTask(p.Design, func(n *graph.Node) { n.Work = rng.Int63n(50) })
				got, err := p.Flatten()
				if err != nil {
					t.Error(err)
					return
				}
				want, err := p.Design.Flatten()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, variant %d: the flat differs from Flatten's", seed, i)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// FuzzShapeBind: a conformance design, its shape known, then reweighed
// (negative work too) and given at most one edit, flattens as it does
// with the table empty: the same flat, or the same error.
func FuzzShapeBind(f *testing.F) {
	f.Add(int64(1), []byte{3, 1, 4, 1, 5}, uint8(0), uint8(0))
	f.Add(int64(7), []byte{0xff, 2}, uint8(0), uint8(1))
	f.Add(int64(11), []byte{9}, uint8(1), uint8(2))
	f.Add(int64(5), []byte{}, uint8(2), uint8(3))
	f.Add(int64(3), []byte{1, 2}, uint8(3), uint8(4))
	f.Add(int64(4), []byte{1}, uint8(4), uint8(0))
	f.Add(int64(8), []byte{7, 7}, uint8(5), uint8(1))
	f.Add(int64(9), []byte{7}, uint8(6), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, weights []byte, edit, at uint8) {
		c, err := conform.Generate(seed % 64)
		if err != nil {
			t.Skip(err)
		}
		p := &Project{Name: "fuzz", Design: c.Design, Machine: c.Machine, Inputs: c.Inputs}
		if _, err := coldFlatten(p); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		var tasks []*graph.Node
		eachTask(p.Design, func(n *graph.Node) { tasks = append(tasks, n) })
		for i, w := range weights {
			tasks[i%len(tasks)].Work = int64(int8(w))
		}
		n := tasks[int(at)%len(tasks)]
		switch edit % 7 {
		case 1:
			n.Label += "'"
		case 2:
			n.Routine += "\nz = 1"
		case 3:
			n.Routine = "z = nosuchvar"
		case 4:
			p.Design.Connect(n.ID, tasks[0].ID, "extra", int64(at))
		case 5:
			p.Design.Name += "'"
		case 6:
			p.Inputs = pits.Env{}
		}
		got, gotErr := p.Flatten()
		want, wantErr := coldFlatten(p)
		sameOutcome(t, fmt.Sprintf("seed %d, edit %d", seed, edit%7), got, gotErr, want, wantErr)
	})
}
