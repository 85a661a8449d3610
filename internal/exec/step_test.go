package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DriveSteps is driveSteps for the package's external tests, which
// draw their cases from the conformance generator.
var DriveSteps = driveSteps

// driveSteps runs a virtual-time schedule with no worker goroutine: it
// builds a session without launching it and, on the caller's goroutine,
// steps the hosted workers in an order the seed shuffles, round after
// round, until every one is through its slot list. A step must return
// rather than block, or the caller hangs. A round after which every
// unfinished worker is blocked with an empty inbox means a step stopped
// short of work it could do, and so do more rounds than the slots and
// copies could take. The result is assembled as a launched
// run's lifecycle assembles it. A crash or the barrier needs the
// coordinator, so either fails the drive.
func driveSteps(r *Runner, s *sched.Schedule, flat *graph.Flat, seed int64) (*Result, error) {
	hosted := make([]bool, s.Machine.NumPE())
	for pe := range hosted {
		hosted[pe] = true
	}
	ses, err := r.buildSession(s, flat, hosted, newTestPlane())
	if err != nil {
		return nil, err
	}
	c := ses.ctrl
	var live []*worker
	// Every round but the last runs a slot or takes a copy of a message,
	// and a message has at most three: a duplicate and a resend.
	rounds := 1
	for _, w := range c.workers {
		w.er = c.era.Load()
		live = append(live, w)
		rounds += len(w.prog.slots) + 3*len(w.prog.in)
	}
	rng := rand.New(rand.NewSource(seed))
	for ; len(live) > 0; rounds-- {
		if rounds == 0 {
			return nil, fmt.Errorf("%d workers still blocked after a round per slot and copy", len(live))
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
		var blocked []*worker
		for _, w := range live {
			switch st, ord, err := w.step(); st {
			case wsFinished:
			case wsBlocked:
				if w.arrived[ord].state != 0 {
					return nil, fmt.Errorf("PE %d blocked on message %d, which is stashed", w.pe, ord)
				}
				blocked = append(blocked, w)
			default:
				return nil, fmt.Errorf("PE %d stopped with status %d: %v", w.pe, st, err)
			}
		}
		stuck := len(blocked) > 0
		for _, w := range blocked {
			if w.inbox.head < len(w.inbox.q) {
				stuck = false
			}
		}
		if stuck {
			return nil, fmt.Errorf("every unfinished worker of %d is blocked with an empty inbox", len(blocked))
		}
		live = blocked
	}
	close(ses.coordDone) // no coordinator ran, so Wait has none to wait for
	p, err := ses.Wait()
	if err != nil {
		return nil, err
	}
	outputs, printed, err := MergePartials(p)
	if err != nil {
		return nil, err
	}
	tr := &trace.Trace{Label: "run:" + s.Algorithm, Events: p.Events}
	tr.Sort()
	return &Result{Outputs: outputs, Printed: printed, Trace: tr}, nil
}

// SameRun compares two results of one schedule: the full trace
// rendering, outputs and print lines, byte for byte.
func SameRun(a, b *Result) error {
	if at, bt := a.Trace.String(), b.Trace.String(); at != bt {
		return fmt.Errorf("traces differ:\n%s\nagainst\n%s", at, bt)
	}
	if af, bf := resultFingerprint(a), resultFingerprint(b); af != bf {
		return fmt.Errorf("outputs or print lines differ (%s against %s)", af, bf)
	}
	return nil
}

// TestStepNeverBlocks drives the virtual-time goldens on one goroutine,
// in five shuffled orders each, and wants every trace byte-identical to
// the launched run's: the order in which processors step cannot change
// a virtual-time trace, since every stamp comes from the model.
func TestStepNeverBlocks(t *testing.T) {
	diamond := diamondDesign(t)
	layered, layeredIn := layeredCalc(t, 5, 4)
	retrying := func(sc *sched.Schedule) *Runner {
		plan := &FaultPlan{}
		for i, kind := range []FaultKind{FaultDup, FaultDrop, FaultDelay, FaultCorrupt} {
			m := sc.Msgs[i*len(sc.Msgs)/4]
			plan.Faults = append(plan.Faults, Fault{Kind: kind, From: m.From, To: m.To, Var: m.Var, Delay: 40})
		}
		return &Runner{Inputs: layeredIn, VirtualTime: true, Retry: true, Faults: plan}
	}
	plain := func(in pits.Env) func(*sched.Schedule) *Runner {
		return func(*sched.Schedule) *Runner { return &Runner{Inputs: in, VirtualTime: true} }
	}
	cases := []struct {
		name   string
		s      sched.Scheduler
		flat   *graph.Flat
		runner func(*sched.Schedule) *Runner
		mspec  string
	}{
		{"diamond-etf-hypercube2", sched.ETF{}, diamond, plain(pits.Env{"x0": pits.Num(21)}), "hypercube:2"},
		{"layered-mh-hypercube3", sched.MH{}, layered, plain(layeredIn), "hypercube:3"},
		{"layered-dsh-star4", sched.DSH{}, layered, plain(layeredIn), "star:4"},
		{"layered-msg-faults", sched.ETF{}, layered, retrying, "hypercube:3"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := tc.s.Schedule(tc.flat.Graph, testMachine(t, tc.mspec, params()))
			if err != nil {
				t.Fatal(err)
			}
			want, err := tc.runner(sc).Run(sc, tc.flat)
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 5; seed++ {
				got, err := driveSteps(tc.runner(sc), sc, tc.flat, seed)
				if err != nil {
					t.Fatalf("order %d: %v", seed, err)
				}
				if err := SameRun(got, want); err != nil {
					t.Fatalf("order %d: %v", seed, err)
				}
			}
		})
	}
}
