package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"slices"
)

// Hasher feeds length-prefixed strings and fixed-width integers into a
// SHA-256 digest, so no two distinct field sequences share an encoding.
// Fields are gathered in a 4 KB buffer and handed to the hash when it
// fills: one Write per field costs an allocation each (the argument
// escapes through the hash.Hash interface), thousands per digest.
type Hasher struct {
	h   hash.Hash
	buf []byte
}

// NewHasher returns a Hasher that has been written nothing.
func NewHasher() *Hasher { return &Hasher{h: sha256.New(), buf: make([]byte, 0, 4<<10)} }

// Num writes v as eight little-endian bytes.
func (w *Hasher) Num(v int64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(v))
	w.spill()
}

// Str writes the length of s, then s.
func (w *Hasher) Str(s string) {
	w.Num(int64(len(s)))
	for len(s) > 0 {
		n := min(len(s), cap(w.buf)-len(w.buf))
		w.buf, s = append(w.buf, s[:n]...), s[n:]
		w.spill()
	}
}

// spill hands the buffer to the hash once it has no room for a number,
// so the buffer never grows.
func (w *Hasher) spill() {
	if cap(w.buf)-len(w.buf) < 8 {
		w.h.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// Sum returns the digest of everything written.
func (w *Hasher) Sum() (sum [32]byte) {
	w.h.Write(w.buf)
	w.h.Sum(sum[:0])
	return sum
}

// nests reports whether Flatten splices n's subgraph in its place.
func nests(n *Node) bool { return n.Kind == KindSub && n.Sub != nil }

// shapeWriter is the shape key's field sequence, the one place it is
// written: Graph.ShapeKey and Doc.ShapeKey each walk their own form of a
// design and hand every graph, node and arc here, so a design has one
// key whichever form it is read from.
type shapeWriter struct {
	*Hasher
	work []int64
}

func (w *shapeWriter) graph(name string, nodes int) {
	w.Str(name)
	w.Num(int64(nodes))
}

func (w *shapeWriter) node(id, label string, kind Kind, routine string, work int64, nested bool) {
	w.Str(id)
	w.Str(label)
	w.Num(int64(kind))
	w.Str(routine)
	if kind == KindTask {
		w.work = append(w.work, work)
	}
	if nested {
		w.Num(1)
	} else {
		w.Num(0)
	}
}

func (w *shapeWriter) arcs(n int) { w.Num(int64(n)) }

func (w *shapeWriter) arc(from, to, v string, words int64) {
	w.Str(from)
	w.Str(to)
	w.Str(v)
	w.Num(words)
}

// ShapeKey digests everything Flatten reads from the design but task
// work: the graph's name and, for each node in order, its id, label,
// kind and routine and whether it nests a subgraph, then the arcs with
// their variables and words, then each nested subgraph's own digest in
// node order. The work of each task comes back instead, in the order
// Flatten lists the tasks: a graph's own, then each nested subgraph's.
// Designs with equal keys flatten to graphs that differ in task work
// alone.
func (g *Graph) ShapeKey() (key [32]byte, work []int64) {
	w := shapeWriter{Hasher: NewHasher(), work: make([]int64, 0, len(g.nodes))}
	var walk func(g *Graph)
	walk = func(g *Graph) {
		w.graph(g.Name, len(g.nodes))
		for _, n := range g.nodes {
			w.node(string(n.ID), n.Label, n.Kind, n.Routine, n.Work, nests(n))
		}
		w.arcs(len(g.arcs))
		for _, a := range g.arcs {
			w.arc(string(a.From), string(a.To), a.Var, a.Words)
		}
		for _, n := range g.nodes {
			if nests(n) {
				walk(n.Sub)
			}
		}
	}
	walk(g)
	return w.Sum(), w.work
}

// ShapeKey is Graph.ShapeKey read off the wire form: the key and work of
// the graph FromDoc builds from d, without building it. ok is false, and
// the key means nothing, when a node's kind alone makes FromDoc refuse
// d: a kind it does not know, or a subgraph on a node that is not a sub
// node. A document FromDoc refuses for anything else (an empty or
// repeated id, an arc it cannot connect, a sub node with no subgraph)
// gets a key that no design that flattens has.
func (d *Doc) ShapeKey() (key [32]byte, work []int64, ok bool) {
	w := shapeWriter{Hasher: NewHasher(), work: make([]int64, 0, len(d.Nodes))}
	ok = true
	var walk func(d *Doc)
	walk = func(d *Doc) {
		w.graph(d.Name, len(d.Nodes))
		for _, n := range d.Nodes {
			kind, known := kindValues[n.Kind]
			ok = ok && known && (n.Sub == nil || kind == KindSub)
			w.node(n.ID, n.Label, kind, n.Routine, n.Work, n.Sub != nil)
		}
		w.arcs(len(d.Arcs))
		for _, a := range d.Arcs {
			w.arc(a.From, a.To, a.Var, a.Words)
		}
		for _, n := range d.Nodes {
			if n.Sub != nil {
				walk(n.Sub)
			}
		}
	}
	walk(d)
	return w.Sum(), w.work, ok
}

// Shape is what flattening a design yields apart from task work: the
// flat graph's nodes with no work, its arcs, each node's arc lists and
// the external bindings. Bind puts one design's work back on it, so
// designs that share a ShapeKey share everything else. A Shape is
// never changed after NewShape and is safe for concurrent use.
type Shape struct {
	g       Graph  // the flat graph's name, version and arcs, clipped to cap == len
	nodes   []Node // flat order; Work 0, arc lists clipped like the arcs
	in, out map[NodeID][]string
}

// NewShape records the shape of flat, which Flatten returned.
func NewShape(flat *Flat) *Shape {
	fg := flat.Graph
	sh := &Shape{g: Graph{Name: fg.Name, arcs: clip(fg.arcs), version: fg.version}, nodes: make([]Node, len(fg.nodes)),
		in: flat.ExternalIn, out: flat.ExternalOut}
	for i, n := range fg.nodes {
		sh.nodes[i] = Node{ID: n.ID, Label: n.Label, Kind: n.Kind, Routine: n.Routine, succ: clip(n.succ), pred: clip(n.pred)}
	}
	return sh
}

// clip returns s with no room to grow, so an append copies it.
func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// Bind returns the flattening of a design of this shape whose task work
// is work, in ShapeKey's order, which is the flat graph's. The graph
// owns its nodes and its id index and shares everything else with the
// shape: a Connect or ShardTask on it copies what it appends to. Work is
// not checked: a caller with negative work flattens the design for
// Validate's error.
func (sh *Shape) Bind(work []int64) (*Flat, error) {
	if len(work) != len(sh.nodes) {
		return nil, fmt.Errorf("graph %q: %d task weights for a shape of %d tasks", sh.g.Name, len(work), len(sh.nodes))
	}
	slab := slices.Clone(sh.nodes)
	g := sh.g
	g.nodes, g.index = make([]*Node, len(slab)), make(map[NodeID]*Node, len(slab))
	for i := range slab {
		slab[i].Work = work[i]
		g.nodes[i] = &slab[i]
		g.index[slab[i].ID] = &slab[i]
	}
	return &Flat{Graph: &g, ExternalIn: sh.in, ExternalOut: sh.out}, nil
}
