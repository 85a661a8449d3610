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
	Name    string
	Design  *graph.Graph
	Machine *machine.Machine
	// Inputs binds the design's external input variables (writer-less
	// storage cells) to trial values.
	Inputs pits.Env
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

// Flatten flattens the design and runs Validate's checks on the
// result. A design whose shape is interned binds its task work onto
// the shape instead, and only its inputs are checked.
func (p *Project) Flatten() (*graph.Flat, error) {
	if p.Design == nil {
		return nil, fmt.Errorf("project %q: no design", p.Name)
	}
	if p.Machine == nil {
		return nil, fmt.Errorf("project %q: no machine", p.Name)
	}
	key, work := p.Design.ShapeKey()
	shapesMu.Lock()
	sh := shapes[key]
	shapesMu.Unlock()
	if slices.ContainsFunc(work, func(w int64) bool { return w < 0 }) {
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
	if p.Design != nil {
		jp.Design = p.Design.Doc()
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
// form (a validating scan, then the decode), the design built from its
// graph.Doc. Everything that holds a whole document in memory decodes
// through here.
func Decode(data []byte) (*Project, error) {
	var jp jsonProject
	if err := json.Unmarshal(data, &jp); err != nil {
		return nil, err
	}
	p := &Project{Name: jp.Name, Machine: jp.Machine}
	if jp.Design != nil {
		var err error
		if p.Design, err = graph.FromDoc(jp.Design); err != nil {
			return nil, err
		}
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
