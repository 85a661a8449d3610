package graph

import (
	"encoding/json"
	"fmt"
)

// Doc is the wire form of a Graph: what MarshalJSON writes and
// UnmarshalJSON reads. It is exported so a document that contains a
// design (a project) can embed it and be encoded or decoded in one
// pass, without a nested Marshaler re-scanning the design's bytes.
type Doc struct {
	Name  string    `json:"name"`
	Nodes []DocNode `json:"nodes"`
	Arcs  []DocArc  `json:"arcs"`
}

// DocNode is the wire form of a Node.
type DocNode struct {
	ID      string `json:"id"`
	Label   string `json:"label,omitempty"`
	Kind    string `json:"kind"`
	Work    int64  `json:"work,omitempty"`
	Routine string `json:"routine,omitempty"`
	Sub     *Doc   `json:"sub,omitempty"`
}

// DocArc is the wire form of an Arc.
type DocArc struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Var   string `json:"var,omitempty"`
	Words int64  `json:"words,omitempty"`
}

var kindNames = map[Kind]string{
	KindTask:    "task",
	KindStorage: "storage",
	KindSub:     "sub",
	KindInput:   "input",
	KindOutput:  "output",
}

var kindValues = map[string]Kind{
	"task":    KindTask,
	"storage": KindStorage,
	"sub":     KindSub,
	"input":   KindInput,
	"output":  KindOutput,
}

// Doc returns the graph's wire form.
func (g *Graph) Doc() *Doc {
	d := &Doc{Name: g.Name}
	if len(g.nodes) > 0 {
		d.Nodes = make([]DocNode, len(g.nodes))
	}
	for i, n := range g.nodes {
		d.Nodes[i] = DocNode{ID: string(n.ID), Label: n.Label, Kind: kindNames[n.Kind], Work: n.Work, Routine: n.Routine}
		if n.Sub != nil {
			d.Nodes[i].Sub = n.Sub.Doc()
		}
	}
	if len(g.arcs) > 0 {
		d.Arcs = make([]DocArc, len(g.arcs))
	}
	for i, a := range g.arcs {
		d.Arcs[i] = DocArc{From: string(a.From), To: string(a.To), Var: a.Var, Words: a.Words}
	}
	return d
}

// FromDoc builds the graph a wire form describes, checking what the
// constructors check: known kinds, unique non-empty ids, subgraphs on
// sub nodes and on no others, arcs between existing nodes.
func FromDoc(d *Doc) (*Graph, error) {
	g := newSized(d.Name, len(d.Nodes), len(d.Arcs))
	for i := range d.Nodes {
		dn := &d.Nodes[i]
		kind, ok := kindValues[dn.Kind]
		if !ok {
			return nil, fmt.Errorf("graph %q: unknown node kind %q", d.Name, dn.Kind)
		}
		n := &Node{ID: NodeID(dn.ID), Label: dn.Label, Kind: kind, Work: dn.Work, Routine: dn.Routine}
		if dn.Sub != nil {
			if kind != KindSub {
				return nil, fmt.Errorf("graph %q: %s node %q carries a subgraph", d.Name, dn.Kind, dn.ID)
			}
			sub, err := FromDoc(dn.Sub)
			if err != nil {
				return nil, err
			}
			n.Sub = sub
		} else if kind == KindSub {
			return nil, fmt.Errorf("graph %q: sub node %q missing subgraph", d.Name, dn.ID)
		}
		if _, err := g.add(n); err != nil {
			return nil, err
		}
	}
	for _, da := range d.Arcs {
		if err := g.Connect(NodeID(da.From), NodeID(da.To), da.Var, da.Words); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MarshalJSON implements json.Marshaler.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(g.Doc())
}

// UnmarshalJSON implements json.Unmarshaler. The receiver is replaced
// wholesale by the decoded graph.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return err
	}
	ng, err := FromDoc(&d)
	if err != nil {
		return err
	}
	*g = *ng
	return nil
}
