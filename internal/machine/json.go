package machine

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// jsonMachine is the wire form of a Machine. Topologies are stored as
// either a spec string ("hypercube:3", "mesh:2x4", ...) or an explicit
// edge list for custom networks.
type jsonMachine struct {
	Name     string   `json:"name"`
	Topology string   `json:"topology,omitempty"`
	N        int      `json:"n,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
	Params   Params   `json:"params"`
	Speeds   []int64  `json:"speeds,omitempty"`
}

// ParseTopology builds a topology from a compact spec string:
//
//	hypercube:D   mesh:RxC   torus:RxC   tree:BxL
//	star:N        ring:N     chain:N     full:N
func ParseTopology(spec string) (*Topology, error) {
	ts, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return ts.build()
}

// topoSpec is a parsed spec string: the kind and its one or two
// numeric arguments (b is zero for the one-argument kinds).
type topoSpec struct {
	kind string
	a, b int
}

// parseSpec splits and converts a spec string without building
// anything. Each numeric field must be a whole decimal integer.
func parseSpec(spec string) (topoSpec, error) {
	kind, arg, ok := strings.Cut(spec, ":")
	if !ok {
		return topoSpec{}, fmt.Errorf("topology spec %q: want kind:args", spec)
	}
	atoi := func(s string) (int, error) {
		v, err := strconv.Atoi(s)
		if err != nil {
			return 0, fmt.Errorf("topology spec %q: bad number %q", spec, s)
		}
		return v, nil
	}
	ts := topoSpec{kind: kind}
	var err error
	switch kind {
	case "mesh", "torus", "tree":
		x, y, ok := strings.Cut(arg, "x")
		if !ok {
			return topoSpec{}, fmt.Errorf("topology spec %q: want AxB", spec)
		}
		if ts.a, err = atoi(x); err == nil {
			ts.b, err = atoi(y)
		}
	case "hypercube", "star", "ring", "chain", "full":
		ts.a, err = atoi(arg)
	default:
		err = fmt.Errorf("topology spec %q: unknown kind %q", spec, kind)
	}
	return ts, err
}

// String renders the spec canonically ("" for the zero spec).
func (ts topoSpec) String() string {
	switch ts.kind {
	case "":
		return ""
	case "mesh", "torus", "tree":
		return fmt.Sprintf("%s:%dx%d", ts.kind, ts.a, ts.b)
	}
	return fmt.Sprintf("%s:%d", ts.kind, ts.a)
}

// topologies interns the topologies built from specs, keyed by the
// parsed spec ("ring:128" and "ring:0128" share one), so a server that
// sees the same few machines request after request builds their
// routing tables once. Past the bound the table is dropped wholesale,
// like the PITS program table; a dropped topology stays valid for
// whoever holds it. Errors are not interned.
var topologiesMu sync.Mutex
var topologies = map[topoSpec]*Topology{}

const maxTopologies = 16

// build returns the interned topology the spec names, constructing it
// on first sight; of two racing first sights, the first to finish wins.
func (ts topoSpec) build() (*Topology, error) {
	topologiesMu.Lock()
	t, ok := topologies[ts]
	topologiesMu.Unlock()
	if ok {
		return t, nil
	}
	t, err := ts.construct()
	if err != nil {
		return nil, err
	}
	topologiesMu.Lock()
	defer topologiesMu.Unlock()
	if won, ok := topologies[ts]; ok {
		return won, nil
	}
	if len(topologies) >= maxTopologies {
		clear(topologies)
	}
	topologies[ts] = t
	return t, nil
}

// construct builds a new topology of the spec's kind.
func (ts topoSpec) construct() (*Topology, error) {
	switch ts.kind {
	case "hypercube":
		return Hypercube(ts.a)
	case "mesh":
		return Mesh(ts.a, ts.b)
	case "torus":
		return Torus(ts.a, ts.b)
	case "tree":
		return Tree(ts.a, ts.b)
	case "star":
		return Star(ts.a)
	case "ring":
		return Ring(ts.a)
	case "chain":
		return Chain(ts.a)
	default:
		return Full(ts.a)
	}
}

// numPE returns how many processors the spec describes, computed from
// its arguments alone and saturating at math.MaxInt32. Arguments the
// constructors reject (zero, negative) count as nothing, so the
// constructor's own error is the one reported.
func (ts topoSpec) numPE() int {
	sat := func(x int64) int64 { return max(0, min(x, math.MaxInt32)) }
	a, b := sat(int64(ts.a)), sat(int64(ts.b))
	switch ts.kind {
	case "hypercube":
		return int(sat(1 << min(a, 31)))
	case "mesh", "torus":
		return int(sat(a * b))
	case "tree":
		if a <= 1 {
			return int(a * b) // a path of b levels, or rejected
		}
		var n, pow int64 = 0, 1
		for l := int64(0); l < b && n < math.MaxInt32; l++ {
			n, pow = sat(n+pow), sat(pow*a)
		}
		return int(n)
	default:
		return int(a)
	}
}

// maxDecodedPEs bounds the machine a JSON document may describe.
// Decoding builds the adjacency lists and checks connectivity, both
// linear in the machine, but the first schedule on it builds the
// all-pairs tables: two N×N ints, so an unchecked "ring:200000" in a
// request body would be 640 GB asked for by its first NextHop. 1024 is
// the size of the largest machines of the paper's period (a 10-cube)
// and eight times the largest used anywhere in this repository; its
// tables are 16 MB. Machines built in code or from the command line's
// -topology are not limited.
const maxDecodedPEs = 1024

// Spec returns the compact spec string of a built-in topology, recorded
// by its constructor, or "" if the topology was custom-built — whatever
// either is named.
func (t *Topology) Spec() string { return t.spec.String() }

// MarshalJSON implements json.Marshaler.
func (m *Machine) MarshalJSON() ([]byte, error) {
	jm := jsonMachine{Name: m.Name, Params: m.Params, Speeds: m.Speeds}
	if spec := m.Topo.Spec(); spec != "" {
		jm.Topology = spec
	} else {
		jm.N = m.Topo.N
		for p := 0; p < m.Topo.N; p++ {
			for _, q := range m.Topo.adj[p] {
				if p < q {
					jm.Edges = append(jm.Edges, [2]int{p, q})
				}
			}
		}
	}
	return json.Marshal(jm)
}

// UnmarshalJSON implements json.Unmarshaler.
func (m *Machine) UnmarshalJSON(data []byte) error {
	var jm jsonMachine
	if err := json.Unmarshal(data, &jm); err != nil {
		return err
	}
	var topo *Topology
	var err error
	if jm.Topology != "" {
		var ts topoSpec
		if ts, err = parseSpec(jm.Topology); err != nil {
			return err
		}
		if n := ts.numPE(); n > maxDecodedPEs {
			return fmt.Errorf("machine %q: topology %q has %d processors or more; a machine read from a document may have at most %d", jm.Name, jm.Topology, n, maxDecodedPEs)
		}
		topo, err = ts.build()
	} else {
		if jm.N > maxDecodedPEs {
			return fmt.Errorf("machine %q: custom topology has %d processors; a machine read from a document may have at most %d", jm.Name, jm.N, maxDecodedPEs)
		}
		topo, err = Custom(jm.Name+"-net", jm.N, jm.Edges)
	}
	if err != nil {
		return err
	}
	nm, err := New(jm.Name, topo, jm.Params)
	if err != nil {
		return err
	}
	if jm.Speeds != nil {
		if err := nm.SetSpeeds(jm.Speeds); err != nil {
			return err
		}
	}
	*m = *nm
	return nil
}
