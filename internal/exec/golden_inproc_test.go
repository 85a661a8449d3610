package exec

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
)

// This file pins the in-process runner's observable behaviour across
// refactors: the PR that introduced the wire transport seam rebuilt the
// runner around sessions and a pluggable delivery plane, and these
// fingerprints guarantee the inproc path stayed byte-identical — same
// virtual-time trace, event for event, and same outputs — as the
// pre-refactor runner that talked to its channels directly.

// layeredCalc builds a deterministic layered design of layers*width+1
// tasks with real routines (the golden fixture; mirrors the benchmark
// harness design but small enough to run in every test pass).
func layeredCalc(t *testing.T, layers, width int) (*graph.Flat, pits.Env) {
	t.Helper()
	g := graph.New("layered-calc")
	g.MustAddStorage("IN", "x")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
			n := g.MustAddTask(id, string(id), int64(10+(l*7+i*3)%20))
			v := fmt.Sprintf("v%d_%d", l, i)
			if l == 0 {
				n.Routine = fmt.Sprintf("%s = x + %d", v, i)
				g.MustConnect("IN", id, "x", 1)
				continue
			}
			left := fmt.Sprintf("v%d_%d", l-1, i)
			right := fmt.Sprintf("v%d_%d", l-1, (i+1)%width)
			n.Routine = fmt.Sprintf("%s = %s + %s * 2", v, left, right)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, i)), id, left, 1)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, (i+1)%width)), id, right, 1)
		}
	}
	snk := g.MustAddTask("snk", "sink", 20)
	terms := make([]string, width)
	for i := 0; i < width; i++ {
		v := fmt.Sprintf("v%d_%d", layers-1, i)
		terms[i] = v
		g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", layers-1, i)), "snk", v, 1)
	}
	snk.Routine = "out = " + strings.Join(terms, " + ")
	g.MustAddStorage("OUT", "out")
	g.MustConnect("snk", "OUT", "out", 1)
	flat, err := g.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	return flat, pits.Env{"x": pits.Num(3)}
}

// runFingerprint executes the schedule in deterministic virtual time
// and fingerprints the full trace rendering plus the sorted outputs.
func runFingerprint(t *testing.T, s sched.Scheduler, flat *graph.Flat, inputs pits.Env, mspec string) string {
	t.Helper()
	m := testMachine(t, mspec, params())
	sc, err := s.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Inputs: inputs, VirtualTime: true}
	res, err := r.Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	return resultFingerprint(res)
}

// resultFingerprint hashes a run's full trace rendering, sorted outputs
// and print lines.
func resultFingerprint(res *Result) string {
	var b strings.Builder
	b.WriteString(res.Trace.String())
	keys := make([]string, 0, len(res.Outputs))
	for k := range res.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, res.Outputs[k])
	}
	for _, line := range res.Printed {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	h := fnv.New64a()
	h.Write([]byte(b.String()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestRunnerInprocGolden asserts the refactored runner (message plane
// behind the transport seam) reproduces the pre-refactor runner's
// virtual-time traces and outputs exactly. The fingerprints below were
// computed on the pre-refactor tree; a mismatch means the inproc path
// is no longer byte-identical.
func TestRunnerInprocGolden(t *testing.T) {
	diamond := diamondDesign(t)
	layered, layeredIn := layeredCalc(t, 5, 4)
	cases := []struct {
		name   string
		s      sched.Scheduler
		flat   *graph.Flat
		inputs pits.Env
		mspec  string
		want   string
	}{
		{"diamond-etf-hypercube2", sched.ETF{}, diamond, pits.Env{"x0": pits.Num(21)}, "hypercube:2", "e6700c4d19fb4236"},
		{"layered-mh-hypercube3", sched.MH{}, layered, layeredIn, "hypercube:3", "8cb60e10c5cf946b"},
		{"layered-dsh-star4", sched.DSH{}, layered, layeredIn, "star:4", "5243642cfcee7ff0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runFingerprint(t, c.s, c.flat, c.inputs, c.mspec)
			if got != c.want {
				t.Errorf("inproc fingerprint drifted: got %s want %s", got, c.want)
			}
		})
	}
}

// TestFaultedRunTracesArePinned pins, event for event, the virtual-time
// traces of runs whose workers log more than a fault-free pass over
// their era: a crash recovered in a second era, after a dropped message
// healed by a retry, on the deterministic chain; and duplicated, dropped
// and delayed messages on the layered design. Such a worker outgrows its
// stretch of the session's event log, and its log must still reach the
// result whole. The fingerprints were computed while each worker's log
// was its own array, copied into the partial.
func TestFaultedRunTracesArePinned(t *testing.T) {
	retrying := func(r *Runner) *Runner {
		r.VirtualTime, r.Retry = true, true
		return r
	}
	t.Run("chain-drop-crash", func(t *testing.T) {
		s, flat := chainSchedule(t)
		plan, err := ParseFaults("drop:a->b:u,crash:0@2")
		if err != nil {
			t.Fatal(err)
		}
		res, err := retrying(&Runner{Inputs: pits.Env{"x0": pits.Num(5)}, Faults: plan}).Run(s, flat)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultFingerprint(res), "5d50f7703a58da76"; got != want {
			t.Errorf("faulted chain fingerprint drifted: got %s want %s\n%s", got, want, res.Trace)
		}
	})
	t.Run("layered-msg-faults", func(t *testing.T) {
		flat, inputs := layeredCalc(t, 5, 4)
		sc, err := sched.ETF{}.Schedule(flat.Graph, testMachine(t, "hypercube:3", params()))
		if err != nil {
			t.Fatal(err)
		}
		plan := &FaultPlan{}
		for i, kind := range []FaultKind{FaultDup, FaultDrop, FaultDelay} {
			m := sc.Msgs[i*len(sc.Msgs)/3]
			plan.Faults = append(plan.Faults, Fault{Kind: kind, From: m.From, To: m.To, Var: m.Var, Delay: 40})
		}
		res, err := retrying(&Runner{Inputs: inputs, Faults: plan}).Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		clean, err := (&Runner{Inputs: inputs, VirtualTime: true}).Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Trace.Events) <= len(clean.Trace.Events) {
			t.Fatalf("the faulted run logged %d events, the fault-free one %d", len(res.Trace.Events), len(clean.Trace.Events))
		}
		if got, want := resultFingerprint(res), "02d09ffd3a0627af"; got != want {
			t.Errorf("faulted layered fingerprint drifted: got %s want %s\n%s", got, want, res.Trace)
		}
	})
}
