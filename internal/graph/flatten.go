package graph

import "fmt"

// Flat is the result of flattening a hierarchical PITL design: a graph
// containing only primitive task nodes, plus the binding information the
// executor needs for data that enters or leaves the design through
// storage cells with no producer or no consumer. The external maps are
// read-only: a flat bound from a Shape shares them with the shape.
type Flat struct {
	// Graph holds only KindTask nodes. Arcs are direct task-to-task
	// dependencies with variable labels and word counts.
	Graph *Graph
	// ExternalIn maps each task to the variables it reads from
	// writer-less storage cells (the design's initial data, e.g. the
	// matrix A and vector b of Figure 1).
	ExternalIn map[NodeID][]string
	// ExternalOut maps each task to the variables it writes into
	// reader-less storage cells (the design's results, e.g. x).
	ExternalOut map[NodeID][]string
}

// Flatten lowers a hierarchical design to a flat task graph:
//
//  1. every KindSub node is spliced in place — its inner nodes appear
//     prefixed with "<subID>/" and its boundary ports are dissolved by
//     rewiring enclosing arcs to the port's inner producers/consumers;
//  2. every storage cell is elided — a cell with a writer becomes
//     direct writer→reader arcs; a cell without a writer marks its
//     readers' variables as external inputs; a cell without readers
//     marks its writer's variable as an external output.
//
// Arc word counts: when an outer arc and an inner arc are fused, the
// inner (more specific) count wins if non-zero, else the outer count.
// The flat graph lists the design's own tasks in node order, then each
// sub node's tasks, flattened alike, in node order; ShapeKey returns
// task work in that order. The input design is not modified.
func (g *Graph) Flatten() (*Flat, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	work := g
	for {
		var sub *Node
		for _, n := range work.nodes {
			if n.Kind == KindSub {
				sub = n
				break
			}
		}
		if sub == nil {
			break
		}
		var err error
		work, err = work.splice(sub)
		if err != nil {
			return nil, err
		}
	}
	flat, err := work.elideStorage()
	if err != nil {
		return nil, err
	}
	if err := flat.Graph.ValidateFlat(); err != nil {
		return nil, err
	}
	return flat, nil
}

// pickWords fuses an inner and an outer word count.
func pickWords(inner, outer int64) int64 {
	if inner > 0 {
		return inner
	}
	return outer
}

// splice returns a new graph in which sub node s has been replaced by
// its (already recursively spliced) subgraph. Inner node ids are
// prefixed with "<s.ID>/".
func (g *Graph) splice(s *Node) (*Graph, error) {
	inner := s.Sub
	// Recursively splice nested sub nodes first.
	for {
		var nested *Node
		for _, n := range inner.nodes {
			if n.Kind == KindSub {
				nested = n
				break
			}
		}
		if nested == nil {
			break
		}
		var err error
		inner, err = inner.splice(nested)
		if err != nil {
			return nil, err
		}
	}

	out := newSized(g.Name, len(g.nodes)+len(inner.nodes), len(g.arcs)+len(inner.arcs))
	prefix := string(s.ID) + "/"

	// Copy all outer nodes except the sub node itself.
	for _, n := range g.nodes {
		if n.ID == s.ID {
			continue
		}
		if _, err := out.add(&Node{ID: n.ID, Label: n.Label, Kind: n.Kind, Work: n.Work, Routine: n.Routine, Sub: n.Sub}); err != nil {
			return nil, err
		}
	}
	// Copy inner non-port nodes with prefixed ids.
	for _, n := range inner.nodes {
		if n.Kind == KindInput || n.Kind == KindOutput {
			continue
		}
		if _, err := out.add(&Node{ID: NodeID(prefix + string(n.ID)), Label: n.Label, Kind: n.Kind, Work: n.Work, Routine: n.Routine, Sub: n.Sub}); err != nil {
			return nil, err
		}
	}

	// Port bindings from the enclosing level.
	inFeed := map[string]Arc{}    // input port var -> the single outer arc feeding it
	outCons := map[string][]Arc{} // output port var -> outer arcs consuming it
	for _, a := range g.Pred(s.ID) {
		inFeed[a.Var] = a
	}
	for _, a := range g.Succ(s.ID) {
		outCons[a.Var] = append(outCons[a.Var], a)
	}
	portKind := map[NodeID]Kind{}
	for _, n := range inner.nodes {
		if n.Kind == KindInput || n.Kind == KindOutput {
			portKind[n.ID] = n.Kind
		}
	}

	// Copy outer arcs not touching the sub node.
	for _, a := range g.arcs {
		if a.From == s.ID || a.To == s.ID {
			continue
		}
		if err := out.Connect(a.From, a.To, a.Var, a.Words); err != nil {
			return nil, err
		}
	}

	// Rewire inner arcs.
	for _, a := range inner.arcs {
		fromKind, fromPort := portKind[a.From]
		toKind, toPort := portKind[a.To]
		switch {
		case fromPort && toPort && fromKind == KindInput && toKind == KindOutput:
			// Pass-through: outer source feeds outer consumers directly.
			feed, ok := inFeed[string(a.From)]
			if !ok {
				return nil, fmt.Errorf("splice %q: input port %q unfed", s.ID, a.From)
			}
			for _, oc := range outCons[string(a.To)] {
				if err := out.Connect(feed.From, oc.To, oc.Var, pickWords(a.Words, oc.Words)); err != nil {
					return nil, err
				}
			}
		case fromPort && fromKind == KindInput:
			feed, ok := inFeed[string(a.From)]
			if !ok {
				return nil, fmt.Errorf("splice %q: input port %q unfed", s.ID, a.From)
			}
			if err := out.Connect(feed.From, NodeID(prefix+string(a.To)), a.Var, pickWords(a.Words, feed.Words)); err != nil {
				return nil, err
			}
		case toPort && toKind == KindOutput:
			for _, oc := range outCons[string(a.To)] {
				if err := out.Connect(NodeID(prefix+string(a.From)), oc.To, oc.Var, pickWords(a.Words, oc.Words)); err != nil {
					return nil, err
				}
			}
		case fromPort || toPort:
			return nil, fmt.Errorf("splice %q: arc %s->%s uses port in unexpected direction", s.ID, a.From, a.To)
		default:
			if err := out.Connect(NodeID(prefix+string(a.From)), NodeID(prefix+string(a.To)), a.Var, a.Words); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// elideStorage removes storage cells (and top-level ports, which behave
// like external storage), leaving a pure task graph plus external
// bindings. Chains of storage cells are collapsed transitively.
func (g *Graph) elideStorage() (*Flat, error) {
	isData := func(n *Node) bool {
		return n.Kind == KindStorage || n.Kind == KindInput || n.Kind == KindOutput
	}
	// For each data node, resolve the ultimate task writer by walking
	// back through data-node chains.
	type source struct {
		task  NodeID // writer task, or "" if external
		words int64
		ok    bool
	}
	memo := map[NodeID]source{}
	var resolve func(id NodeID, depth int) (source, error)
	resolve = func(id NodeID, depth int) (source, error) {
		if s, done := memo[id]; done {
			return s, nil
		}
		if depth > g.Len() {
			return source{}, fmt.Errorf("graph %q: storage chain too deep at %q", g.Name, id)
		}
		preds := g.Pred(id)
		if len(preds) == 0 {
			s := source{ok: true} // external input
			memo[id] = s
			return s, nil
		}
		a := preds[0] // validated: storage has at most one writer
		from := g.index[a.From]
		if isData(from) {
			s, err := resolve(from.ID, depth+1)
			if err != nil {
				return source{}, err
			}
			if s.words == 0 {
				s.words = a.Words
			}
			memo[id] = s
			return s, nil
		}
		s := source{task: from.ID, words: a.Words, ok: true}
		memo[id] = s
		return s, nil
	}

	out := newSized(g.Name, len(g.nodes), len(g.arcs))
	flat := &Flat{Graph: out, ExternalIn: map[NodeID][]string{}, ExternalOut: map[NodeID][]string{}}
	for _, n := range g.nodes {
		if n.Kind == KindTask {
			if _, err := out.add(&Node{ID: n.ID, Label: n.Label, Kind: KindTask, Work: n.Work, Routine: n.Routine}); err != nil {
				return nil, err
			}
		} else if !isData(n) {
			return nil, fmt.Errorf("graph %q: unexpected %v node %q during storage elision", g.Name, n.Kind, n.ID)
		}
	}

	dataName := func(n *Node) string {
		if n.Label != "" {
			return n.Label
		}
		return string(n.ID)
	}

	for _, a := range g.arcs {
		from, to := g.index[a.From], g.index[a.To]
		switch {
		case from.Kind == KindTask && to.Kind == KindTask:
			if err := out.Connect(a.From, a.To, a.Var, a.Words); err != nil {
				return nil, err
			}
		case from.Kind == KindTask && isData(to):
			// Writer side: pair with each ultimate task reader.
			readers, err := g.dataReaders(to.ID, isData, 0)
			if err != nil {
				return nil, err
			}
			name := a.Var
			if name == "" {
				name = dataName(to)
			}
			if len(readers) == 0 {
				flat.ExternalOut[a.From] = appendUnique(flat.ExternalOut[a.From], name)
			}
			for _, r := range readers {
				if err := out.Connect(a.From, r.task, name, pickWords(r.words, a.Words)); err != nil {
					return nil, err
				}
			}
		case isData(from) && to.Kind == KindTask:
			// Reader side: only record externals here; written cells
			// were handled from the writer side.
			src, err := resolve(from.ID, 0)
			if err != nil {
				return nil, err
			}
			if src.task == "" {
				name := a.Var
				if name == "" {
					name = dataName(from)
				}
				flat.ExternalIn[a.To] = appendUnique(flat.ExternalIn[a.To], name)
			}
		case isData(from) && isData(to):
			// Handled transitively by resolve/dataReaders.
		}
	}
	return flat, nil
}

type readerRef struct {
	task  NodeID
	words int64
}

// dataReaders returns the ultimate task readers reachable from data
// node id through data-node chains, with the word count of the final
// hop into each task.
func (g *Graph) dataReaders(id NodeID, isData func(*Node) bool, depth int) ([]readerRef, error) {
	if depth > g.Len() {
		return nil, fmt.Errorf("graph %q: storage chain too deep at %q", g.Name, id)
	}
	var out []readerRef
	for _, a := range g.Succ(id) {
		to := g.index[a.To]
		if isData(to) {
			more, err := g.dataReaders(to.ID, isData, depth+1)
			if err != nil {
				return nil, err
			}
			out = append(out, more...)
		} else {
			out = append(out, readerRef{task: a.To, words: a.Words})
		}
	}
	return out, nil
}

func appendUnique(s []string, v string) []string {
	for _, x := range s {
		if x == v {
			return s
		}
	}
	return append(s, v)
}
