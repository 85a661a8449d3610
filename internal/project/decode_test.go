package project

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"repro/internal/conform"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
)

// forget empties the shape table.
func forget() {
	shapesMu.Lock()
	clear(shapes)
	shapesMu.Unlock()
}

// decodeFlatten decodes body and flattens the project: the flat, or the
// error of the step that refused it, and whether Decode bound a known
// shape instead of building the design.
func decodeFlatten(body []byte) (flat *graph.Flat, bound bool, err error) {
	p, err := Decode(body)
	if err != nil {
		return nil, false, err
	}
	flat, err = p.Flatten()
	return flat, p.Design == nil, err
}

// luBody is LU3x3 as a project document.
func luBody(t testing.TB) []byte {
	t.Helper()
	p, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// editDoc decodes body into its wire form, lets edit change it, and
// encodes it again.
func editDoc(t testing.TB, body []byte, edit func(d *graph.Doc)) []byte {
	t.Helper()
	var jp jsonProject
	if err := json.Unmarshal(body, &jp); err != nil {
		t.Fatal(err)
	}
	edit(jp.Design)
	out, err := json.Marshal(jp)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// docNode returns the node of d, or of a subgraph on the path of sub
// node ids, with the given id.
func docNode(d *graph.Doc, path ...string) *graph.DocNode {
	for i := range d.Nodes {
		if d.Nodes[i].ID != path[0] {
			continue
		}
		if len(path) == 1 {
			return &d.Nodes[i]
		}
		return docNode(d.Nodes[i].Sub, path[1:]...)
	}
	panic(fmt.Sprintf("no node %v in %q", path, d.Name))
}

// TestKnownShapeDecodeReadsAnyEncoding: byte-different encodings of an
// interned design (re-indented, keys reordered, ids \u-escaped) bind
// the shape, and flatten to what a cold decode flattens to.
func TestKnownShapeDecodeReadsAnyEncoding(t *testing.T) {
	body := luBody(t)
	forget()
	want, bound, err := decodeFlatten(body)
	if err != nil || bound {
		t.Fatalf("cold decode: bound %v, err %v", bound, err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, body, "", "\t"); err != nil {
		t.Fatal(err)
	}
	var generic any
	if err := json.Unmarshal(body, &generic); err != nil {
		t.Fatal(err)
	}
	reordered, err := json.Marshal(generic) // object keys sorted
	if err != nil {
		t.Fatal(err)
	}
	escaped := regexp.MustCompile(`"id":"[^"]*"`).ReplaceAllFunc(body, func(m []byte) []byte {
		var b strings.Builder
		b.WriteString(`"id":"`)
		for _, r := range string(m[6 : len(m)-1]) {
			fmt.Fprintf(&b, `\u%04x`, r)
		}
		return append([]byte(b.String()), '"')
	})
	for name, enc := range map[string][]byte{"same bytes": body, "re-indented": indented.Bytes(), "keys reordered": reordered, "ids escaped": escaped} {
		if bytes.Equal(enc, body) != (name == "same bytes") {
			t.Fatalf("%s: the encoding is not a different one", name)
		}
		got, bound, err := decodeFlatten(enc)
		if err != nil || !bound {
			t.Fatalf("%s: bound %v, err %v; want the known shape bound", name, bound, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the flat differs from a cold decode's", name)
		}
	}
}

// TestKnownShapeDecodeMissesEveryEdit: any one edit to what the shape
// key covers builds the design, and decodes and flattens as it does
// with the table empty.
func TestKnownShapeDecodeMissesEveryEdit(t *testing.T) {
	body := luBody(t)
	for name, edit := range map[string]func(d *graph.Doc){
		"routine":    func(d *graph.Doc) { docNode(d, "fl21").Routine += "\n" },
		"label":      func(d *graph.Doc) { docNode(d, "fl21").Label += "'" },
		"node order": func(d *graph.Doc) { d.Nodes[0], d.Nodes[1] = d.Nodes[1], d.Nodes[0] },
		"arc var":    func(d *graph.Doc) { d.Arcs[0].Var += "'" },
		"arc words":  func(d *graph.Doc) { d.Arcs[0].Words++ },
		"sub's task": func(d *graph.Doc) { docNode(d, "forward", "y2").Routine += "\n" },
		"sub's name": func(d *graph.Doc) { docNode(d, "back").Sub.Name += "'" },
		"graph name": func(d *graph.Doc) { d.Name += "'" },
	} {
		edited := editDoc(t, body, edit)
		forget()
		if _, _, err := decodeFlatten(body); err != nil {
			t.Fatal(err)
		}
		got, bound, gotErr := decodeFlatten(edited)
		if bound {
			t.Errorf("%s: the edited design bound LU3x3's shape", name)
		}
		forget()
		want, _, wantErr := decodeFlatten(edited)
		sameOutcome(t, name, got, gotErr, want, wantErr)
	}
}

// TestKnownShapeDecodeRefusesAsCold: with LU3x3's shape, and so its ids,
// interned, every document FromDoc refuses is refused by Decode with
// FromDoc's text, which is what Decode said before it read shape keys,
// and work flattening refuses is refused by Flatten as a cold decode's.
func TestKnownShapeDecodeRefusesAsCold(t *testing.T) {
	body := luBody(t)
	for name, edit := range map[string]func(d *graph.Doc){
		"unknown kind":           func(d *graph.Doc) { docNode(d, "fl21").Kind = "bogus" },
		"duplicate id":           func(d *graph.Doc) { d.Nodes[1].ID = d.Nodes[0].ID },
		"dangling arc":           func(d *graph.Doc) { d.Arcs[0].From = "nowhere" },
		"sub on a task":          func(d *graph.Doc) { docNode(d, "fl21").Sub = &graph.Doc{Name: "inner"} },
		"sub without sub":        func(d *graph.Doc) { docNode(d, "forward").Sub = nil },
		"negative words":         func(d *graph.Doc) { d.Arcs[0].Words = -1 },
		"words beyond the bound": func(d *graph.Doc) { d.Arcs[0].Words = machine.MaxWords + 1 },
		"nested unknown kind":    func(d *graph.Doc) { docNode(d, "back", "x1").Kind = "Task" },
	} {
		edited := editDoc(t, body, edit)
		var jp jsonProject
		if err := json.Unmarshal(edited, &jp); err != nil {
			t.Fatal(err)
		}
		_, want := graph.FromDoc(jp.Design)
		if want == nil {
			t.Fatalf("%s: FromDoc took the document", name)
		}
		forget()
		if _, _, err := decodeFlatten(body); err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(edited); err == nil || err.Error() != want.Error() {
			t.Errorf("%s: Decode says %v, want %v", name, err, want)
		}
	}
	for name, work := range map[string]int64{"negative work": -1, "work beyond the bound": machine.MaxWork + 1, "the most work": math.MaxInt64} {
		edited := editDoc(t, body, func(d *graph.Doc) { docNode(d, "back", "x1").Work = work })
		forget()
		if _, _, err := decodeFlatten(body); err != nil {
			t.Fatal(err)
		}
		got, bound, gotErr := decodeFlatten(edited)
		if bound || gotErr == nil {
			t.Errorf("%s: bound %v, err %v; want the design built and refused", name, bound, gotErr)
		}
		forget()
		want, _, wantErr := decodeFlatten(edited)
		sameOutcome(t, name, got, gotErr, want, wantErr)
	}
}

// TestDocShapeKeyMatchesGraphKey: the key read off a project document's
// design is the built design's, for every builtin and 64 conformance
// designs (LU3x3 nests two subgraphs, some conformance designs one).
func TestDocShapeKeyMatchesGraphKey(t *testing.T) {
	var projects []*Project
	for _, name := range BuiltinNames() {
		p, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		projects = append(projects, p)
	}
	for seed := int64(0); seed < 64; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		projects = append(projects, &Project{Name: fmt.Sprint("conform-", seed), Design: c.Design, Machine: c.Machine, Inputs: c.Inputs})
	}
	for _, p := range projects {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var jp jsonProject
		if err := json.Unmarshal(body, &jp); err != nil {
			t.Fatal(err)
		}
		key, work, ok := jp.Design.ShapeKey()
		wantKey, wantWork := p.Design.ShapeKey()
		if !ok || key != wantKey || !reflect.DeepEqual(work, wantWork) {
			t.Errorf("%s: the document's key %x (ok %v) and work %v, the design's %x and %v", p.Name, key[:4], ok, work, wantKey[:4], wantWork)
		}
	}
}

// TestKnownShapeDecodesRaceTheDrop: goroutines decode and flatten one
// design while another fills the shape table past its size again and
// again, dropping it wholesale under them (run it under -race). Bound
// or built, every flat is the cold one.
func TestKnownShapeDecodesRaceTheDrop(t *testing.T) {
	lu, err := LU3x3()
	if err != nil {
		t.Fatal(err)
	}
	body := luBody(t)
	forget()
	want, _, err := decodeFlatten(body)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	dropped := make(chan struct{})
	go func() {
		defer close(dropped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			g := graph.New(fmt.Sprint("filler-", i%(2*maxShapes)))
			g.MustAddTask("t", "", 1)
			if _, err := (&Project{Name: "filler", Design: g, Machine: lu.Machine}).Flatten(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				got, _, err := decodeFlatten(body)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("decode %d: the flat differs from the cold one", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-dropped
}

// twoTasks is a two-task design on ring:4 as a project document, with
// the given task work, arc words and machine parameters.
func twoTasks(work, words int64, params string) []byte {
	return []byte(fmt.Sprintf(`{"name":"two","design":{"name":"two","nodes":[`+
		`{"id":"a","kind":"task","work":%d},{"id":"b","kind":"task","work":1}],`+
		`"arcs":[{"from":"a","to":"b","var":"v","words":%d}]},`+
		`"machine":{"name":"r4","topology":"ring:4","params":{%s}}}`, work, words, params))
}

const unitParams = `"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":1`

// TestModelTimeBounds: task work, arc words and machine parameters
// beyond the bounds that keep model time from overflowing are refused,
// by an error that names the task, the arc or the parameter, whether or
// not the design's shape is known. At the bounds, MH's prediction is
// what the model says, not a wrapped number.
func TestModelTimeBounds(t *testing.T) {
	forget()
	if _, _, err := decodeFlatten(twoTasks(1, 1, unitParams)); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		body []byte
		want string
	}{
		{"words", twoTasks(1, machine.MaxWords+1, unitParams), `graph "two": arc a->b has 1048577 words, more than 1048576`},
		{"the most words", twoTasks(1, math.MaxInt64, unitParams), `graph "two": arc a->b has 9223372036854775807 words, more than 1048576`},
		{"work", twoTasks(machine.MaxWork+1, 1, unitParams), `project "two": graph "two": task "a" has work 274877906945, more than 274877906944`},
		{"the most work", twoTasks(math.MaxInt64, 1, unitParams), `project "two": graph "two": task "a" has work 9223372036854775807, more than 274877906944`},
		{"WordTime", twoTasks(1, 1, `"ProcSpeed":1,"TaskStartup":1,"MsgStartup":5,"WordTime":257`), `machine params: WordTime 257 is more than 256`},
		{"MsgStartup", twoTasks(1, 1, `"ProcSpeed":1,"TaskStartup":1,"MsgStartup":274877906945,"WordTime":1`), `machine params: MsgStartup 274877906945 is more than 274877906944`},
		{"TaskStartup", twoTasks(1, 1, `"ProcSpeed":1,"TaskStartup":9223372036854775807,"MsgStartup":5,"WordTime":1`), `machine params: TaskStartup 9223372036854775807 is more than 274877906944`},
		{"ProcSpeed", twoTasks(1, 1, `"ProcSpeed":9223372036854775807,"TaskStartup":1,"MsgStartup":5,"WordTime":1`), `machine params: ProcSpeed 9223372036854775807 is more than 274877906944`},
	} {
		for _, known := range []bool{true, false} {
			if !known {
				forget()
			}
			if _, _, err := decodeFlatten(c.body); err == nil || err.Error() != c.want {
				t.Errorf("%s (shape known %v): %v, want %s", c.name, known, err, c.want)
			}
		}
		if _, _, err := decodeFlatten(twoTasks(1, 1, unitParams)); err != nil {
			t.Fatal(err)
		}
	}
	maxParams := fmt.Sprintf(`"ProcSpeed":1,"TaskStartup":%d,"MsgStartup":%d,"WordTime":%d`, machine.MaxStartup, machine.MaxStartup, machine.MaxWordTime)
	p, err := Decode(twoTasks(machine.MaxWork, machine.MaxWords, maxParams))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := p.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := (sched.MH{}).Schedule(flat.Graph, p.Machine)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both on one processor: two startups and both tasks' work; apart,
	// a's run, the message and b's run.
	together := 2*machine.MaxStartup + machine.MaxWork + 1
	apart := 2*machine.MaxStartup + machine.MaxWork + 1 + machine.MaxStartup + machine.MaxWords*machine.MaxWordTime
	if got := sc.Makespan(); got != together && got != apart {
		t.Errorf("makespan %v, want %v or %v", got, together, apart)
	}
}

// FuzzDecodeShape: a project document, its bytes mutated, decodes and
// flattens the same with its own shape known, with LU3x3's known, and
// with the table empty: the same flat, or the same error.
func FuzzDecodeShape(f *testing.F) {
	base := luBody(f)
	f.Add(base)
	f.Add(bytes.Replace(base, []byte(`"work":`), []byte(`"work":1`), 3))
	f.Add(bytes.Replace(base, []byte(`"kind":"task"`), []byte(`"kind":"sub"`), 1))
	f.Add(twoTasks(1, 1, unitParams))
	f.Add(twoTasks(-1, 1, unitParams))
	for seed := int64(0); seed < 4; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			f.Fatal(err)
		}
		body, err := json.Marshal(&Project{Name: "fuzz", Design: c.Design, Machine: c.Machine, Inputs: c.Inputs})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		forget()
		want, _, wantErr := decodeFlatten(body) // interns its shape if it flattens
		got, _, gotErr := decodeFlatten(body)
		sameOutcome(t, "own shape known", got, gotErr, want, wantErr)
		forget()
		if _, _, err := decodeFlatten(base); err != nil {
			t.Fatal(err)
		}
		got, _, gotErr = decodeFlatten(body)
		sameOutcome(t, "LU3x3's shape known", got, gotErr, want, wantErr)
	})
}
