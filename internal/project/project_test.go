package project

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

func TestLU3x3ValidatesAndFlattens(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	// 8 top-level tasks + 4 forward + 4 back = 16.
	if got := len(flat.Graph.Tasks()); got != 16 {
		t.Errorf("tasks = %d, want 16", got)
	}
	// Hierarchy: the design itself has two KindSub nodes.
	subs := 0
	for _, n := range p.Design.Nodes() {
		if n.Kind == 2 { // graph.KindSub
			subs++
		}
	}
	if subs != 2 {
		t.Errorf("sub nodes = %d, want 2 (forward, back)", subs)
	}
	// External bindings: A and b in, x out.
	insSeen := map[string]bool{}
	for _, vars := range flat.ExternalIn {
		for _, v := range vars {
			insSeen[v] = true
		}
	}
	if !insSeen["A"] || !insSeen["b"] {
		t.Errorf("external inputs = %v", flat.ExternalIn)
	}
	outSeen := false
	for _, vars := range flat.ExternalOut {
		for _, v := range vars {
			if v == "x" {
				outSeen = true
			}
		}
	}
	if !outSeen {
		t.Errorf("external outputs = %v", flat.ExternalOut)
	}
}

// The headline integration test: flatten Figure 1, schedule it with
// every heuristic on the default hypercube, execute it for real on
// goroutines, and check that the computed x actually solves Ax=b.
func TestLU3x3SolvesTheSystemUnderEveryScheduler(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sched.All() {
		sc, err := s.Schedule(flat.Graph, p.Machine)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: invalid schedule: %v", s.Name(), err)
		}
		r := &exec.Runner{Inputs: p.Inputs}
		res, err := r.Run(sc, flat)
		if err != nil {
			t.Fatalf("%s: run: %v", s.Name(), err)
		}
		x, ok := res.Outputs["x"].(pits.Vec)
		if !ok {
			t.Fatalf("%s: x = %#v", s.Name(), res.Outputs["x"])
		}
		want := LUSolution()
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-9 {
				t.Errorf("%s: x[%d] = %v, want %v", s.Name(), i+1, x[i], want[i])
			}
		}
	}
}

func TestNewtonSqrtProject(t *testing.T) {
	p, err := NewtonSqrt()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := sched.Serial{}.Schedule(flat.Graph, p.Machine)
	if err != nil {
		t.Fatal(err)
	}
	r := &exec.Runner{Inputs: p.Inputs}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	x := float64(res.Outputs["x"].(pits.Num))
	if math.Abs(x-math.Sqrt2) > 1e-9 {
		t.Errorf("x = %v, want sqrt(2)", x)
	}
}

func TestStatsPipelineProject(t *testing.T) {
	p, err := StatsPipeline()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(flat.Graph.Tasks()); got != 9 {
		t.Errorf("tasks = %d, want 9", got)
	}
	sc, err := sched.MH{}.Schedule(flat.Graph, p.Machine)
	if err != nil {
		t.Fatal(err)
	}
	r := &exec.Runner{Inputs: p.Inputs}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	best := float64(res.Outputs["best"].(pits.Num))
	spread := float64(res.Outputs["spread"].(pits.Num))
	if best <= 70 || best >= 90 {
		t.Errorf("best = %v", best)
	}
	if spread <= 0 {
		t.Errorf("spread = %v", spread)
	}
	// The 8 channels plus combiner should exploit the 8-PE mesh.
	if sc.UsedPEs() < 4 {
		t.Errorf("only %d PEs used", sc.UsedPEs())
	}
}

func TestProjectJSONRoundTrip(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Project
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	// An earlier test interned LU3x3's shape, so Decode built no design:
	// Graph builds it from the document.
	if back.Name != p.Name || back.Graph().Len() != p.Design.Len() || back.Machine.NumPE() != p.Machine.NumPE() {
		t.Fatal("round trip changed shape")
	}
	if !reflect.DeepEqual(back.Inputs["A"], p.Inputs["A"]) {
		t.Errorf("inputs lost: %v", back.Inputs)
	}
	if err := back.Validate(); err != nil {
		t.Errorf("round-tripped project invalid: %v", err)
	}
	// Routines survive.
	if back.Graph().Node("fl21").Routine != p.Design.Node("fl21").Routine {
		t.Error("routine lost")
	}
}

func TestProjectJSONInputTypes(t *testing.T) {
	p := &Project{Name: "t", Inputs: pits.Env{
		"n": pits.Num(3.5), "v": pits.Vec{1, 2}, "f": pits.BoolV(true), "s": pits.StrV("hi"),
	}}
	p2, _ := NewtonSqrt()
	p.Design, p.Machine = p2.Design, p2.Machine
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var back Project
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Inputs["n"] != pits.Num(3.5) || back.Inputs["f"] != pits.BoolV(true) || back.Inputs["s"] != pits.StrV("hi") {
		t.Errorf("inputs = %#v", back.Inputs)
	}
	if !reflect.DeepEqual(back.Inputs["v"], pits.Vec{1, 2}) {
		t.Errorf("vector = %#v", back.Inputs["v"])
	}
}

// TestProjectJSONInputDecoding: an input is a number, an array of
// numbers, a boolean or a string. null in particular is refused: read
// as a float64 it would quietly become 0 and the run a wrong answer.
func TestProjectJSONInputDecoding(t *testing.T) {
	p, err := NewtonSqrt()
	if err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(good, &doc); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		raw  string
		want pits.Value // nil: refused
	}{
		{`2`, pits.Num(2)},
		{`-0.5e1`, pits.Num(-5)},
		{` 7 `, pits.Num(7)},
		{`[1, 2.5]`, pits.Vec{1, 2.5}},
		{`[]`, pits.Vec{}},
		{`true`, pits.BoolV(true)},
		{`false`, pits.BoolV(false)},
		{`"hi"`, pits.StrV("hi")},
		{`"3"`, pits.StrV("3")},
		{`null`, nil},
		{`{}`, nil},
		{`{"v": 1}`, nil},
		{`[1, null]`, nil},
		{`[1, "2"]`, nil},
		{`[[1]]`, nil},
	} {
		doc["inputs"] = json.RawMessage(`{"a": ` + c.raw + `}`)
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var back Project
		err = json.Unmarshal(body, &back)
		switch {
		case c.want == nil && (err == nil || !strings.Contains(err.Error(), `input "a": unsupported JSON value`)):
			t.Errorf("input %s: err = %v, inputs = %#v; want the unsupported-value error", c.raw, err, back.Inputs)
		case c.want != nil && (err != nil || !reflect.DeepEqual(back.Inputs["a"], c.want)):
			t.Errorf("input %s decoded to %#v (err %v), want %#v", c.raw, back.Inputs["a"], err, c.want)
		}
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("missing input value", func(t *testing.T) {
		q := *p
		q.Inputs = pits.Env{"A": p.Inputs["A"]} // drop b
		if err := q.Validate(); err == nil || !strings.Contains(err.Error(), `"b"`) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("no design", func(t *testing.T) {
		q := Project{Name: "x", Machine: p.Machine}
		if err := q.Validate(); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("no machine", func(t *testing.T) {
		q := Project{Name: "x", Design: p.Design}
		if err := q.Validate(); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("broken routine", func(t *testing.T) {
		q, err := LU3x3()
		if err != nil {
			t.Fatal(err)
		}
		q.Design.Node("fl21").Routine = "l21 = "
		if err := q.Validate(); err == nil {
			t.Error("accepted")
		}
	})
	t.Run("routine uses unknown variable", func(t *testing.T) {
		q, err := LU3x3()
		if err != nil {
			t.Fatal(err)
		}
		q.Design.Node("fl21").Routine = "l21 = nosuchvar"
		if err := q.Validate(); err == nil {
			t.Error("accepted")
		}
	})
}

func TestBuiltins(t *testing.T) {
	names := BuiltinNames()
	if len(names) != 4 {
		t.Fatalf("names = %v", names)
	}
	for _, n := range names {
		p, err := Builtin(n)
		if err != nil {
			t.Errorf("%s: %v", n, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
	if _, err := Builtin("nosuch"); err == nil {
		t.Error("unknown builtin accepted")
	}
}

// Figure 3 shape check at the project level: scheduling LU on larger
// hypercubes must not increase MH makespan, and 8 PEs must beat 1.
func TestLUSpeedupShape(t *testing.T) {
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(1 << 62)
	for _, dim := range []int{0, 1, 2, 3} {
		topo, err := machine.Hypercube(dim)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Machine.Scale(topo)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := sched.MH{}.Schedule(flat.Graph, m)
		if err != nil {
			t.Fatal(err)
		}
		mk := int64(sc.Makespan())
		if mk > prev {
			t.Errorf("hypercube-%d makespan %d worse than smaller machine %d", dim, mk, prev)
		}
		prev = mk
	}
}
