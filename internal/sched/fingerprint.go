package sched

import (
	"encoding/hex"

	"repro/internal/graph"
	"repro/internal/machine"
)

// Fingerprint condenses everything a scheduler's output depends on —
// the flattened task graph (ids, execution weights, routines, arcs
// with their communication weights, external bindings), the machine
// (topology adjacency, the four machine characteristics, per-PE
// speeds), and the algorithm name — into one stable hex key. Two
// submissions with equal fingerprints produce byte-identical
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
	w := graph.NewHasher()
	w.Str(algorithm)

	g := f.Graph
	nodes := g.Nodes()
	w.Num(int64(len(nodes)))
	for _, n := range nodes {
		w.Str(string(n.ID))
		w.Num(int64(n.Kind))
		w.Num(n.Work)
		w.Str(n.Routine)
	}
	arcs := g.Arcs()
	w.Num(int64(len(arcs)))
	for _, a := range arcs {
		w.Str(string(a.From))
		w.Str(string(a.To))
		w.Str(a.Var)
		w.Num(a.Words)
	}
	// External bindings ride along for safety: for a valid project they
	// are implied by the routines and arcs above, but hashing them keeps
	// the key honest if flattening ever grows new degrees of freedom.
	for _, n := range nodes {
		for _, v := range f.ExternalIn[n.ID] {
			w.Str(v)
		}
		w.Str("|")
		for _, v := range f.ExternalOut[n.ID] {
			w.Str(v)
		}
		w.Str("||")
	}

	// The machine: size and adjacency (not the topology's display
	// name — two spellings of the same wiring are the same machine),
	// then the paper's four characteristics and per-PE speeds.
	n := m.NumPE()
	w.Num(int64(n))
	for p := 0; p < n; p++ {
		for _, q := range m.Topo.Neighbors(p) {
			w.Num(int64(q))
		}
		w.Num(-1)
	}
	w.Num(m.Params.ProcSpeed)
	w.Num(int64(m.Params.TaskStartup))
	w.Num(int64(m.Params.MsgStartup))
	w.Num(int64(m.Params.WordTime))
	w.Num(int64(len(m.Speeds)))
	for _, s := range m.Speeds {
		w.Num(s)
	}
	sum := w.Sum()
	return hex.EncodeToString(sum[:])
}
