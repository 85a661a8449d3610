package sched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Fingerprint condenses everything a scheduler's output depends on —
// the flattened task graph (ids, execution weights, routines, arcs
// with their communication weights, external bindings), the machine
// (topology adjacency, the four machine characteristics, per-PE
// speeds, reliability), and the algorithm name — into one stable hex
// key. Two submissions with equal fingerprints produce byte-identical
// schedules, so a serving control plane can cache the schedule and
// pay construction once for a stream of same-shape requests.
//
// Deliberately excluded:
//
//   - input values: same shape, different data must hit the cache —
//     that is the whole point;
//   - display-only fields (node labels, graph and machine names):
//     they cannot influence placement, timing or outputs.
//
// Execution and communication weights are very much included: two
// graphs of identical shape but different Work or Words fields
// schedule differently and must not collide.
func Fingerprint(f *graph.Flat, m *machine.Machine, algorithm string) string {
	w := fpWriter{h: sha256.New()}
	w.str(algorithm)

	g := f.Graph
	nodes := g.Nodes()
	w.num(int64(len(nodes)))
	for _, n := range nodes {
		w.str(string(n.ID))
		w.num(int64(n.Kind))
		w.num(n.Work)
		w.str(n.Routine)
	}
	arcs := g.Arcs()
	w.num(int64(len(arcs)))
	for _, a := range arcs {
		w.str(string(a.From))
		w.str(string(a.To))
		w.str(a.Var)
		w.num(a.Words)
	}
	// External bindings ride along for safety: for a valid project they
	// are implied by the routines and arcs above, but hashing them keeps
	// the key honest if flattening ever grows new degrees of freedom.
	for _, n := range nodes {
		for _, v := range f.ExternalIn[n.ID] {
			w.str(v)
		}
		w.str("|")
		for _, v := range f.ExternalOut[n.ID] {
			w.str(v)
		}
		w.str("||")
	}

	// The machine: size and adjacency (not the topology's display
	// name — two spellings of the same wiring are the same machine),
	// then the paper's four characteristics and per-PE speeds.
	n := m.NumPE()
	w.num(int64(n))
	for p := 0; p < n; p++ {
		for _, q := range m.Topo.Neighbors(p) {
			w.num(int64(q))
		}
		w.num(-1)
	}
	w.num(m.Params.ProcSpeed)
	w.num(int64(m.Params.TaskStartup))
	w.num(int64(m.Params.MsgStartup))
	w.num(int64(m.Params.WordTime))
	w.num(int64(len(m.Speeds)))
	for _, s := range m.Speeds {
		w.num(s)
	}
	w.flush()
	return hex.EncodeToString(w.h.Sum(nil))
}

// fpWriter feeds length-prefixed strings and fixed-width integers into
// the hash so no two distinct field sequences share an encoding. Fields
// are gathered in buf and handed to the hash a buffer at a time: one
// Write per field costs an allocation each (the argument escapes
// through the hash.Hash interface), thousands per fingerprint.
type fpWriter struct {
	h   hash.Hash
	n   int
	buf [4096]byte
}

func (w *fpWriter) flush() {
	w.h.Write(w.buf[:w.n])
	w.n = 0
}

func (w *fpWriter) num(v int64) {
	if w.n+8 > len(w.buf) {
		w.flush()
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], uint64(v))
	w.n += 8
}

func (w *fpWriter) str(s string) {
	w.num(int64(len(s)))
	for len(s) > 0 {
		if w.n == len(w.buf) {
			w.flush()
		}
		c := copy(w.buf[w.n:], s)
		w.n += c
		s = s[c:]
	}
}
