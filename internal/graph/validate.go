package graph

import (
	"errors"
	"fmt"

	"repro/internal/machine"
)

// Validate checks the structural invariants a PITL design must satisfy
// before it can be flattened, scheduled or executed:
//
//   - the graph (and every subgraph, recursively) is acyclic;
//   - input ports have no predecessors, output ports no successors;
//   - every arc into a KindSub node names a variable matching one of
//     the subgraph's input ports, and every arc out matches one of its
//     output ports;
//   - every input port of a subgraph is fed by exactly one enclosing
//     arc, and every output port feeds at least zero (dangling outputs
//     are legal: a subroutine may export values nobody consumes);
//   - storage nodes have at most one writer (single-assignment data
//     cells, the dataflow convention of the paper);
//   - task work is in [0, machine.MaxWork] (AddTask refuses negative
//     work too).
//
// All problems found are joined into one error.
func (g *Graph) Validate() error {
	var errs []error
	if _, err := g.TopoSort(); err != nil {
		errs = append(errs, err)
	}
	for _, n := range g.nodes {
		switch n.Kind {
		case KindInput:
			if len(n.pred) > 0 {
				errs = append(errs, fmt.Errorf("graph %q: input port %q has predecessors", g.Name, n.ID))
			}
		case KindOutput:
			if len(n.succ) > 0 {
				errs = append(errs, fmt.Errorf("graph %q: output port %q has successors", g.Name, n.ID))
			}
		case KindStorage:
			if len(n.pred) > 1 {
				errs = append(errs, fmt.Errorf("graph %q: storage %q has %d writers (max 1)", g.Name, n.ID, len(n.pred)))
			}
		case KindTask:
			if n.Work < 0 {
				errs = append(errs, fmt.Errorf("graph %q: task %q has negative work", g.Name, n.ID))
			} else if n.Work > machine.MaxWork {
				errs = append(errs, fmt.Errorf("graph %q: task %q has work %d, more than %d", g.Name, n.ID, n.Work, machine.MaxWork))
			}
		case KindSub:
			if n.Sub == nil {
				errs = append(errs, fmt.Errorf("graph %q: sub node %q has nil subgraph", g.Name, n.ID))
				continue
			}
			if err := n.Sub.Validate(); err != nil {
				errs = append(errs, fmt.Errorf("in subgraph %q of node %q: %w", n.Sub.Name, n.ID, err))
			}
			errs = append(errs, g.checkSubBinding(n)...)
		}
	}
	return errors.Join(errs...)
}

// checkSubBinding verifies the port binding between enclosing arcs and
// the ports of sub node n's lower-level graph.
func (g *Graph) checkSubBinding(n *Node) []error {
	var errs []error
	inPorts := map[string]bool{}
	outPorts := map[string]bool{}
	for _, sn := range n.Sub.nodes {
		switch sn.Kind {
		case KindInput:
			inPorts[string(sn.ID)] = true
		case KindOutput:
			outPorts[string(sn.ID)] = true
		}
	}
	fedPorts := map[string]int{}
	for _, a := range g.Pred(n.ID) {
		if !inPorts[a.Var] {
			errs = append(errs, fmt.Errorf("graph %q: arc %s->%s carries %q which is not an input port of subgraph %q",
				g.Name, a.From, a.To, a.Var, n.Sub.Name))
			continue
		}
		fedPorts[a.Var]++
	}
	for p := range inPorts {
		switch fedPorts[p] {
		case 0:
			errs = append(errs, fmt.Errorf("graph %q: input port %q of sub node %q is never fed", g.Name, p, n.ID))
		case 1:
			// ok
		default:
			errs = append(errs, fmt.Errorf("graph %q: input port %q of sub node %q fed by %d arcs", g.Name, p, n.ID, fedPorts[p]))
		}
	}
	for _, a := range g.Succ(n.ID) {
		if !outPorts[a.Var] {
			errs = append(errs, fmt.Errorf("graph %q: arc %s->%s carries %q which is not an output port of subgraph %q",
				g.Name, a.From, a.To, a.Var, n.Sub.Name))
		}
	}
	return errs
}

// ValidateFlat checks the extra invariants a flattened graph must
// satisfy: only task nodes remain and at least one task exists.
func (g *Graph) ValidateFlat() error {
	if err := g.Validate(); err != nil {
		return err
	}
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph %q: no nodes", g.Name)
	}
	for _, n := range g.nodes {
		if n.Kind != KindTask {
			return fmt.Errorf("graph %q: node %q has kind %v; flattened graphs contain only tasks", g.Name, n.ID, n.Kind)
		}
	}
	return nil
}
