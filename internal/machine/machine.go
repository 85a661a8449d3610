// Package machine models Banger's target parallel machines.
//
// Following the paper, a program is tailored to a machine by exactly
// four characteristics — processor speed, process startup time, message
// passing startup time, and message transmission speed — plus, for
// distributed-memory machines, an interconnection network topology
// entered as a graph. Supported topologies match the paper (hypercube,
// mesh, tree, star, fully-connected) plus ring, chain, torus and
// user-defined graphs.
package machine

import (
	"fmt"
	"strings"
)

// Time is simulated time in integer microseconds. All scheduling and
// simulation arithmetic is integral so results are exact and
// deterministic.
type Time int64

// String formats the time as microseconds.
func (t Time) String() string { return fmt.Sprintf("%dus", int64(t)) }

// Params are the paper's four target-machine characteristics.
type Params struct {
	// ProcSpeed is processor speed in abstract operations per
	// microsecond. Task execution time is ceil(work/ProcSpeed).
	ProcSpeed int64
	// TaskStartup is the process startup time charged once per task
	// instance placed on a processor.
	TaskStartup Time
	// MsgStartup is the message-passing startup (software latency)
	// charged once per message.
	MsgStartup Time
	// WordTime is the transmission time per word per hop (the inverse
	// of message transmission speed).
	WordTime Time
}

// Bounds on the model's inputs: a task's work, an arc's words and the
// machine's parameters. Inside them, on a machine of at most 1024
// processors (the most a document may describe), one task runs and one
// message crosses the network in under 2^40 µs each (2^38 + 2^38, and
// 2^38 + 1023·2^20·2^8), so no model time, a sum of such intervals
// along one chain of a schedule, can overflow before the chain is 2^23
// intervals long.
const (
	MaxWork     = 1 << 38       // a task's work, operations
	MaxWords    = 1 << 20       // an arc's words
	MaxSpeed    = 1 << 38       // ProcSpeed and per-processor speeds, operations per µs
	MaxStartup  = Time(1 << 38) // TaskStartup and MsgStartup, µs
	MaxWordTime = Time(1 << 8)  // WordTime, µs per word per hop
)

// Validate checks that the parameters are physically meaningful and
// within their bounds.
func (p Params) Validate() error {
	if p.ProcSpeed <= 0 {
		return fmt.Errorf("machine params: ProcSpeed must be positive, got %d", p.ProcSpeed)
	}
	if p.TaskStartup < 0 || p.MsgStartup < 0 || p.WordTime < 0 {
		return fmt.Errorf("machine params: negative latency (%+v)", p)
	}
	for _, b := range []struct {
		name   string
		v, max int64
	}{
		{"ProcSpeed", p.ProcSpeed, MaxSpeed},
		{"TaskStartup", int64(p.TaskStartup), int64(MaxStartup)},
		{"MsgStartup", int64(p.MsgStartup), int64(MaxStartup)},
		{"WordTime", int64(p.WordTime), int64(MaxWordTime)},
	} {
		if b.v > b.max {
			return fmt.Errorf("machine params: %s %d is more than %d", b.name, b.v, b.max)
		}
	}
	return nil
}

// DefaultParams returns the parameter set used throughout the
// reproduction harness: unit-speed processors, small task startup, and
// message costs that make communication matter without dominating.
func DefaultParams() Params {
	return Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1}
}

// Machine is a target machine: a topology plus the four parameters.
// Shared-memory machines are modelled as fully-connected topologies
// with zero-cost communication parameters.
type Machine struct {
	Name   string
	Topo   *Topology
	Params Params
	// Speeds optionally overrides ProcSpeed per processor for
	// heterogeneous machines. When nil the machine is homogeneous.
	Speeds []int64
}

// New returns a machine over the given topology with the given
// parameters, or an error if either is invalid.
func New(name string, topo *Topology, p Params) (*Machine, error) {
	if topo == nil {
		return nil, fmt.Errorf("machine %q: nil topology", name)
	}
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Machine{Name: name, Topo: topo, Params: p}, nil
}

// MustNew is New that panics on error; for literal example machines.
func MustNew(name string, topo *Topology, p Params) *Machine {
	m, err := New(name, topo, p)
	if err != nil {
		panic(err)
	}
	return m
}

// SetSpeeds makes the machine heterogeneous with the given per-PE
// speeds (operations per microsecond, all positive).
func (m *Machine) SetSpeeds(speeds []int64) error {
	if len(speeds) != m.Topo.N {
		return fmt.Errorf("machine %q: %d speeds for %d processors", m.Name, len(speeds), m.Topo.N)
	}
	for i, s := range speeds {
		if s <= 0 {
			return fmt.Errorf("machine %q: processor %d speed %d must be positive", m.Name, i, s)
		}
		if s > MaxSpeed {
			return fmt.Errorf("machine %q: processor %d speed %d is more than %d", m.Name, i, s, MaxSpeed)
		}
	}
	m.Speeds = append([]int64(nil), speeds...)
	return nil
}

// NumPE returns the number of processing elements.
func (m *Machine) NumPE() int { return m.Topo.N }

// Speed returns the operation rate of processor pe.
func (m *Machine) Speed(pe int) int64 {
	if m.Speeds != nil {
		return m.Speeds[pe]
	}
	return m.Params.ProcSpeed
}

// ExecTime returns the time to run a task with the given abstract work
// on processor pe: process startup plus ceil(work/speed).
func (m *Machine) ExecTime(work int64, pe int) Time {
	if work < 0 {
		work = 0
	}
	s := m.Speed(pe)
	return m.Params.TaskStartup + Time((work+s-1)/s)
}

// CommTime returns the time for a message of the given word count from
// processor p to processor q: zero when co-located (the PPSE
// convention), otherwise message startup plus per-word transmission
// accumulated over every hop of the route.
func (m *Machine) CommTime(words int64, p, q int) Time {
	if p == q {
		return 0
	}
	if words < 0 {
		words = 0
	}
	h := Time(m.Topo.Hops(p, q))
	return m.Params.MsgStartup + h*Time(words)*m.Params.WordTime
}

// CommCoeffs is the allocation-free fast path behind CommTime for
// schedulers that evaluate millions of candidate placements: it returns
// the per-message startup, the per-word time of one hop and the
// topology's all-pairs hop counts, such that, for p != q,
//
//	CommTime(words, p, q) == startup + Time(words)*wordTime*Time(hops[p][q])
//
// (and 0 when p == q). The hop table is the topology's own routing
// table, so the fast path adds no table per machine or per word time:
// every machine read from a document naming ring:128 reads the one its
// interned topology holds. Callers must treat it as read-only. Safe for
// concurrent use.
func (m *Machine) CommCoeffs() (startup, wordTime Time, hops [][]int) {
	m.Topo.buildRoutes()
	return m.Params.MsgStartup, m.Params.WordTime, m.Topo.dist
}

// Scale returns a machine identical to m but over a different topology
// (used for speedup sweeps that grow the same machine family).
func (m *Machine) Scale(topo *Topology) (*Machine, error) {
	return New(fmt.Sprintf("%s/%s", m.Name, topo.Name), topo, m.Params)
}

// String describes the machine compactly.
func (m *Machine) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d PEs on %s, speed=%d ops/us, task startup=%v, msg startup=%v, word time=%v",
		m.Name, m.Topo.N, m.Topo.Name, m.Params.ProcSpeed, m.Params.TaskStartup, m.Params.MsgStartup, m.Params.WordTime)
	if m.Speeds != nil {
		fmt.Fprintf(&b, ", heterogeneous speeds=%v", m.Speeds)
	}
	return b.String()
}
