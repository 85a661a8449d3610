// Package graph implements Banger's programming-in-the-large (PITL)
// hierarchical dataflow graphs.
//
// A PITL design is a directed acyclic graph whose nodes are either
// primitive sequential tasks (to be filled in with a PITS routine),
// storage cells (the open rectangles of the paper's Figure 1), boundary
// ports of a subgraph, or decomposable nodes that expand into a
// lower-level graph. Arcs establish precedence created by control or
// data dependencies and are labelled with the variable whose data flows
// along them.
//
// Scheduling and execution always operate on a flattened graph: storage
// cells are elided into direct task-to-task arcs and decomposable nodes
// are spliced in place (see Flatten).
package graph

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// NodeID identifies a node within a Graph. IDs are unique per graph.
// Flattening composes IDs hierarchically with '/' (e.g. "forward/y2").
type NodeID string

// Kind classifies a node of a PITL graph.
type Kind int

const (
	// KindTask is a primitive sequential task; it carries a work
	// estimate and optionally a PITS routine.
	KindTask Kind = iota
	// KindStorage is a named data cell (an open rectangle in Figure 1).
	// Storage is free: it is elided during flattening.
	KindStorage
	// KindSub is a decomposable node containing a lower-level graph.
	KindSub
	// KindInput marks a boundary port of a subgraph through which a
	// variable enters from the enclosing level.
	KindInput
	// KindOutput marks a boundary port of a subgraph through which a
	// variable leaves to the enclosing level.
	KindOutput
)

// String returns the lower-case name of the kind, its name in a
// document.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is a vertex of a PITL graph.
type Node struct {
	ID      NodeID
	Label   string // human-readable comment, e.g. "fan l21"
	Kind    Kind
	Work    int64  // abstract operation count for tasks (>= 0)
	Routine string // PITS source text for primitive tasks (may be empty)
	Sub     *Graph // lower-level graph for KindSub nodes

	// Arcs leaving and entering the node in the graph that holds it,
	// insertion order. They hang off the node so that the graph's one
	// map from id to node is also its adjacency index.
	succ, pred []Arc
}

// Arc is a directed precedence edge labelled with the variable whose
// data flows from From to To. Words is the message volume in machine
// words (>= 0; 0 means a pure control dependency).
type Arc struct {
	From  NodeID
	To    NodeID
	Var   string
	Words int64
}

// Graph is a hierarchical PITL dataflow graph.
//
// The zero value is not usable; construct with New. Node insertion
// order is preserved so renderings and schedules are deterministic.
type Graph struct {
	Name  string
	nodes []*Node
	index map[NodeID]*Node
	arcs  []Arc

	version uint64 // bumped on every structural mutation
}

// Version returns a counter that changes on every structural mutation
// (node or arc insertion). Derived views — the scheduler's compiled
// graph — key their caches on it to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// New returns an empty graph with the given name.
func New(name string) *Graph { return newSized(name, 0, 0) }

// newSized is New with room reserved for the given node and arc counts.
func newSized(name string, nodes, arcs int) *Graph {
	return &Graph{
		Name:  name,
		nodes: make([]*Node, 0, nodes),
		index: make(map[NodeID]*Node, nodes),
		arcs:  make([]Arc, 0, arcs),
	}
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// NumArcs returns the number of arcs.
func (g *Graph) NumArcs() int { return len(g.arcs) }

// Node returns the node with the given id, or nil if absent.
func (g *Graph) Node(id NodeID) *Node { return g.index[id] }

// Nodes returns the nodes in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Arcs returns the arcs in insertion order. The slice is shared;
// callers must not modify it.
func (g *Graph) Arcs() []Arc { return g.arcs }

// Tasks returns the primitive task nodes in insertion order.
func (g *Graph) Tasks() []*Node {
	var ts []*Node
	for _, n := range g.nodes {
		if n.Kind == KindTask {
			ts = append(ts, n)
		}
	}
	return ts
}

func (g *Graph) add(n *Node) (*Node, error) {
	if n.ID == "" {
		return nil, fmt.Errorf("graph %q: empty node id", g.Name)
	}
	if _, dup := g.index[n.ID]; dup {
		return nil, fmt.Errorf("graph %q: duplicate node id %q", g.Name, n.ID)
	}
	g.nodes = append(g.nodes, n)
	g.index[n.ID] = n
	g.version++
	return n, nil
}

// AddTask adds a primitive task with the given abstract work (operation
// count). It returns the node so callers can attach a Routine.
func (g *Graph) AddTask(id NodeID, label string, work int64) (*Node, error) {
	if work < 0 {
		return nil, fmt.Errorf("graph %q: task %q has negative work %d", g.Name, id, work)
	}
	return g.add(&Node{ID: id, Label: label, Kind: KindTask, Work: work})
}

// MustAddTask is AddTask that panics on error; intended for building
// literal example designs.
func (g *Graph) MustAddTask(id NodeID, label string, work int64) *Node {
	n, err := g.AddTask(id, label, work)
	if err != nil {
		panic(err)
	}
	return n
}

// AddStorage adds a named storage cell. Storage nodes are elided by
// Flatten; they exist so designs can be drawn the way Figure 1 draws
// them, with data rectangles between tasks.
func (g *Graph) AddStorage(id NodeID, label string) (*Node, error) {
	return g.add(&Node{ID: id, Label: label, Kind: KindStorage})
}

// MustAddStorage is AddStorage that panics on error.
func (g *Graph) MustAddStorage(id NodeID, label string) *Node {
	n, err := g.AddStorage(id, label)
	if err != nil {
		panic(err)
	}
	return n
}

// AddSub adds a decomposable node whose behaviour is given by the
// lower-level graph sub. The subgraph's KindInput/KindOutput port nodes
// define how enclosing arcs bind to it: an arc into the sub node with
// variable v attaches to sub's input port named v, and an arc out with
// variable v detaches from sub's output port named v.
func (g *Graph) AddSub(id NodeID, label string, sub *Graph) (*Node, error) {
	if sub == nil {
		return nil, fmt.Errorf("graph %q: sub node %q has nil subgraph", g.Name, id)
	}
	return g.add(&Node{ID: id, Label: label, Kind: KindSub, Sub: sub})
}

// MustAddSub is AddSub that panics on error.
func (g *Graph) MustAddSub(id NodeID, label string, sub *Graph) *Node {
	n, err := g.AddSub(id, label, sub)
	if err != nil {
		panic(err)
	}
	return n
}

// AddInput adds a boundary input port. The port's id doubles as the
// variable name it imports from the enclosing level.
func (g *Graph) AddInput(id NodeID) (*Node, error) {
	return g.add(&Node{ID: id, Label: string(id), Kind: KindInput})
}

// MustAddInput is AddInput that panics on error.
func (g *Graph) MustAddInput(id NodeID) *Node {
	n, err := g.AddInput(id)
	if err != nil {
		panic(err)
	}
	return n
}

// AddOutput adds a boundary output port named after the variable it
// exports to the enclosing level.
func (g *Graph) AddOutput(id NodeID) (*Node, error) {
	return g.add(&Node{ID: id, Label: string(id), Kind: KindOutput})
}

// MustAddOutput is AddOutput that panics on error.
func (g *Graph) MustAddOutput(id NodeID) *Node {
	n, err := g.AddOutput(id)
	if err != nil {
		panic(err)
	}
	return n
}

// Connect adds an arc carrying variable v (words machine words) from
// one node to another. Both endpoints must already exist.
func (g *Graph) Connect(from, to NodeID, v string, words int64) error {
	src, dst := g.index[from], g.index[to]
	if src == nil {
		return fmt.Errorf("graph %q: arc source %q not found", g.Name, from)
	}
	if dst == nil {
		return fmt.Errorf("graph %q: arc target %q not found", g.Name, to)
	}
	if from == to {
		return fmt.Errorf("graph %q: self-arc on %q", g.Name, from)
	}
	if words < 0 {
		return fmt.Errorf("graph %q: arc %s->%s has negative words %d", g.Name, from, to, words)
	}
	if words > machine.MaxWords {
		return fmt.Errorf("graph %q: arc %s->%s has %d words, more than %d", g.Name, from, to, words, machine.MaxWords)
	}
	a := Arc{From: from, To: to, Var: v, Words: words}
	g.arcs = append(g.arcs, a)
	src.succ = append(src.succ, a)
	dst.pred = append(dst.pred, a)
	g.version++
	return nil
}

// MustConnect is Connect that panics on error.
func (g *Graph) MustConnect(from, to NodeID, v string, words int64) {
	if err := g.Connect(from, to, v, words); err != nil {
		panic(err)
	}
}

// Succ returns a copy of the arcs leaving node id, in insertion order.
// Hot paths should prefer SuccArcs, which does not allocate.
func (g *Graph) Succ(id NodeID) []Arc {
	return append([]Arc(nil), g.SuccArcs(id)...)
}

// Pred returns a copy of the arcs entering node id, in insertion order.
// Hot paths should prefer PredArcs, which does not allocate.
func (g *Graph) Pred(id NodeID) []Arc {
	return append([]Arc(nil), g.PredArcs(id)...)
}

// SuccArcs returns the arcs leaving node id, in insertion order. The
// slice is shared with the graph's arc index and must be treated as
// read-only; it stays valid until the graph is mutated.
func (g *Graph) SuccArcs(id NodeID) []Arc { return g.at(id).succ }

// PredArcs returns the arcs entering node id, in insertion order. The
// slice is shared with the graph's arc index and must be treated as
// read-only; it stays valid until the graph is mutated.
func (g *Graph) PredArcs(id NodeID) []Arc { return g.at(id).pred }

// at is Node for a caller that only reads arc lists: an id the graph
// lacks gets a node with none.
func (g *Graph) at(id NodeID) *Node {
	if n := g.index[id]; n != nil {
		return n
	}
	return &Node{}
}

// Successors returns the distinct successor node ids of id, sorted.
func (g *Graph) Successors(id NodeID) []NodeID { return neighborIDs(g.SuccArcs(id), false) }

// Predecessors returns the distinct predecessor node ids of id, sorted.
func (g *Graph) Predecessors(id NodeID) []NodeID { return neighborIDs(g.PredArcs(id), true) }

func neighborIDs(arcs []Arc, fromSide bool) []NodeID {
	seen := make(map[NodeID]bool, len(arcs))
	var out []NodeID
	for _, a := range arcs {
		id := a.To
		if fromSide {
			id = a.From
		}
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalWork returns the sum of Work over all task nodes, the serial
// computation demand of the design.
func (g *Graph) TotalWork() int64 {
	var w int64
	for _, n := range g.nodes {
		if n.Kind == KindTask {
			w += n.Work
		}
	}
	return w
}

// TotalWords returns the sum of Words over all arcs, the total data
// volume the design moves.
func (g *Graph) TotalWords() int64 {
	var w int64
	for _, a := range g.arcs {
		w += a.Words
	}
	return w
}

// Clone returns a deep copy of the graph. Subgraphs are cloned
// recursively; Routine strings are shared (immutable).
func (g *Graph) Clone() *Graph {
	c := newSized(g.Name, len(g.nodes), len(g.arcs))
	for _, n := range g.nodes {
		nn := &Node{ID: n.ID, Label: n.Label, Kind: n.Kind, Work: n.Work, Routine: n.Routine,
			succ: append([]Arc(nil), n.succ...), pred: append([]Arc(nil), n.pred...)}
		if n.Sub != nil {
			nn.Sub = n.Sub.Clone()
		}
		c.nodes = append(c.nodes, nn)
		c.index[nn.ID] = nn
	}
	c.arcs = append(c.arcs, g.arcs...)
	return c
}
