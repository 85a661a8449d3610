// Package project ties a Banger design together: the PITL graph, the
// target machine, and the external input data, in one loadable/savable
// document. It also ships the built-in sample projects used throughout
// the reproduction — most importantly the paper's Figure 1 running
// example, LU decomposition of a 3×3 system Ax=b.
package project

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
)

// Project is a complete Banger workspace.
type Project struct {
	Name string
	// Design is the hierarchical design. It is nil exactly when Decode
	// found the document's design to be of a shape an earlier Flatten
	// interned: the project then holds that shape and the task work, and
	// Graph builds the design from the document when it is asked for.
	Design  *graph.Graph
	Machine *machine.Machine
	// Inputs binds the design's external input variables (writer-less
	// storage cells) to trial values.
	Inputs pits.Env

	// What Decode read off the document: the design's shape key and
	// task work, the interned shape when it was known, the design built
	// from the document (keyOf, by Decode or by Graph; nil while none
	// is) and, until one is, the wire form. Flatten uses them while
	// Design is keyOf, so edit a decoded design by setting Design to a
	// graph of your own, not in place.
	key   [32]byte
	work  []int64
	shape *graph.Shape
	keyOf *graph.Graph
	doc   *graph.Doc
}

// Graph returns the design, building it from the document, once, when
// Decode matched a known shape and left Design nil.
func (p *Project) Graph() *graph.Graph {
	if p.Design == nil && p.doc != nil {
		// FromDoc cannot fail: the document's key is that of a design
		// that was built and flattened.
		p.Design, _ = graph.FromDoc(p.doc)
		p.keyOf, p.doc = p.Design, nil
	}
	return p.Design
}

// Validate checks the project is internally consistent: the design
// validates and flattens, every external input variable has a value,
// and every task routine parses and type-checks against its inputs.
func (p *Project) Validate() error {
	_, err := p.Flatten()
	return err
}

// shapes interns the flattened shapes of the designs seen lately, by
// graph.ShapeKey: a design that differs from one of them in task work
// alone binds its work onto the shape, and skips flattening and the
// routine checks, which the shape has passed. Past maxShapes the table
// is dropped wholesale, like machine's topology table; a dropped shape
// stays valid for every flat bound to it.
var (
	shapesMu sync.Mutex
	shapes   = map[[32]byte]*graph.Shape{}
)

const maxShapes = 16

// badWork reports task work that flattening refuses.
func badWork(w int64) bool { return w < 0 || w > machine.MaxWork }

// known returns the interned shape of the given key, or nil.
func known(key [32]byte) *graph.Shape {
	shapesMu.Lock()
	defer shapesMu.Unlock()
	return shapes[key]
}

// Flatten flattens the design and runs Validate's checks on the
// result. A design whose shape is interned binds its task work onto
// the shape instead, and only its inputs are checked. A decoded design
// is digested once, by Decode.
func (p *Project) Flatten() (*graph.Flat, error) {
	if p.Design == nil && p.doc == nil {
		return nil, fmt.Errorf("project %q: no design", p.Name)
	}
	if p.Machine == nil {
		return nil, fmt.Errorf("project %q: no machine", p.Name)
	}
	key, work, sh := p.key, p.work, p.shape
	if p.Design != p.keyOf { // built in code, or set since Decode
		key, work = p.Design.ShapeKey()
		sh = known(key)
	}
	if slices.ContainsFunc(work, badWork) {
		sh = nil // flattening refuses it, with Validate's error
	}
	flatten := p.Design.Flatten
	if sh != nil {
		flatten = func() (*graph.Flat, error) { return sh.Bind(work) }
	}
	flat, err := flatten()
	if err != nil {
		return nil, fmt.Errorf("project %q: %w", p.Name, err)
	}
	for _, n := range flat.Graph.Nodes() {
		for _, v := range flat.ExternalIn[n.ID] {
			if _, ok := p.Inputs[v]; !ok {
				return nil, fmt.Errorf("project %q: task %s needs external input %q which has no value", p.Name, n.ID, v)
			}
		}
	}
	if sh != nil {
		return flat, nil
	}
	var defined []string
	for _, n := range flat.Graph.Nodes() { // all tasks, once flattened
		if n.Routine == "" {
			continue
		}
		prog, err := pits.Parse(n.Routine)
		if err != nil {
			return nil, fmt.Errorf("project %q: task %s: %w", p.Name, n.ID, err)
		}
		defined = defined[:0]
		for _, a := range flat.Graph.PredArcs(n.ID) {
			defined = append(defined, a.Var)
		}
		defined = append(defined, flat.ExternalIn[n.ID]...)
		if err := pits.Check(prog, defined); err != nil {
			return nil, fmt.Errorf("project %q: task %s: %w", p.Name, n.ID, err)
		}
	}
	sh = graph.NewShape(flat)
	shapesMu.Lock()
	defer shapesMu.Unlock()
	if len(shapes) >= maxShapes {
		clear(shapes)
	}
	shapes[key] = sh
	return flat, nil
}

// jsonProject is the wire form. The design is its graph.Doc inline, not
// a nested Marshaler whose bytes would be scanned again; inputs are
// plain JSON numbers, arrays of numbers, booleans and strings.
type jsonProject struct {
	Name    string           `json:"name"`
	Design  *graph.Doc       `json:"design"`
	Machine *machine.Machine `json:"machine"`
	Inputs  map[string]any   `json:"inputs,omitempty"`
}

// MarshalJSON implements json.Marshaler.
func (p *Project) MarshalJSON() ([]byte, error) {
	jp := jsonProject{Name: p.Name, Machine: p.Machine}
	if g := p.Graph(); g != nil {
		jp.Design = g.Doc()
	}
	if len(p.Inputs) > 0 {
		jp.Inputs = make(map[string]any, len(p.Inputs))
		for k, v := range p.Inputs {
			switch t := v.(type) {
			case pits.Num:
				jp.Inputs[k] = float64(t)
			case pits.Vec:
				jp.Inputs[k] = []float64(t)
			case pits.BoolV:
				jp.Inputs[k] = bool(t)
			case pits.StrV:
				jp.Inputs[k] = string(t)
			default:
				return nil, fmt.Errorf("project %q: input %q has unserialisable type %s", p.Name, k, v.TypeName())
			}
		}
	}
	return json.Marshal(jp)
}

// Decode reads a project document: one json.Unmarshal into the wire
// form (a validating scan, then the decode), then the design's shape
// key read off its graph.Doc. A design of an interned shape whose task
// work is in bounds is not built: the project keeps the shape, the work
// and the Doc, and Design is nil. Any other design is built from its
// Doc, with FromDoc's errors, and Flatten interns it under the key read
// here. Everything that holds a whole document in memory decodes
// through here.
func Decode(data []byte) (*Project, error) {
	var jp jsonProject
	err := json.Unmarshal(data, &jp)
	if err != nil {
		return nil, err
	}
	p := &Project{Name: jp.Name, Machine: jp.Machine}
	if d := jp.Design; d != nil {
		var ok bool
		p.key, p.work, ok = d.ShapeKey()
		if p.shape = known(p.key); ok && p.shape != nil && !slices.ContainsFunc(p.work, badWork) {
			p.doc = d
		} else if p.Design, err = graph.FromDoc(d); err != nil {
			return nil, err
		}
		p.keyOf = p.Design
	}
	if jp.Inputs != nil {
		p.Inputs = make(pits.Env, len(jp.Inputs))
		for k, v := range jp.Inputs {
			val, ok := inputValue(v)
			if !ok {
				return nil, fmt.Errorf("project %q: input %q: unsupported JSON value", jp.Name, k)
			}
			p.Inputs[k] = val
		}
	}
	return p, nil
}

// UnmarshalJSON implements json.Unmarshaler for a project met inside
// another decode, which has by then scanned data twice more than Decode
// will (once to validate the enclosing document, once to find where
// this value ends).
func (p *Project) UnmarshalJSON(data []byte) error {
	np, err := Decode(data)
	if err == nil {
		*p = *np
	}
	return err
}

// inputValue converts one decoded JSON input to its PITS value: a
// number, an array of numbers, a boolean or a string. Anything else —
// null (which decoding into a float64 would quietly read as 0), an
// object, an array holding a non-number — is not an input.
func inputValue(v any) (pits.Value, bool) {
	switch t := v.(type) {
	case float64:
		return pits.Num(t), true
	case bool:
		return pits.BoolV(t), true
	case string:
		return pits.StrV(t), true
	case []any:
		vec := make(pits.Vec, len(t))
		for i, e := range t {
			f, ok := e.(float64)
			if !ok {
				return nil, false
			}
			vec[i] = f
		}
		return vec, true
	}
	return nil, false
}

// builtinTable maps names to constructors.
func builtinTable() map[string]func() (*Project, error) {
	return map[string]func() (*Project, error){
		"lu3x3":       LU3x3,
		"newton-sqrt": NewtonSqrt,
		"stats":       StatsPipeline,
		"heat":        Heat,
	}
}

// Builtin returns a fresh copy of the named built-in sample project.
func Builtin(name string) (*Project, error) {
	mk, ok := builtinTable()[name]
	if !ok {
		return nil, fmt.Errorf("project: no builtin %q (have %v)", name, BuiltinNames())
	}
	return mk()
}

// BuiltinNames lists the built-in sample projects, sorted.
func BuiltinNames() []string {
	var names []string
	for n := range builtinTable() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
