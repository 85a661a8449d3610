package exec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pits"
)

// FuzzParseFaults throws arbitrary strings at the -faults spec parser.
// Two properties: the parser never panics, and any accepted spec
// re-renders and re-parses to a fixed point (String is a canonical
// form, so parse∘String must be the identity on canonical specs).
func FuzzParseFaults(f *testing.F) {
	for _, spec := range []string{
		"crash:1@2",
		"drop:a->b:v",
		"drop:a->b:v@3",
		"dup:src->dst:x@2",
		"corrupt:t1->t2:u",
		"delay:t1->t2:u@500",
		"crash:0@0,drop:a->b:v,delay:a->b:v@1",
		" drop:a -> b:v ",
		"drop:a->b->c:v",
		"crash:-1@2",
		"delay:a->b:v",
		"drop:a->b:",
		"bogus:a->b:v",
		"",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaults(spec)
		if err != nil {
			return
		}
		canon := plan.String()
		plan2, err := ParseFaults(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not reparse: %v", canon, spec, err)
		}
		if got := plan2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q -> %q", spec, canon, got)
		}
		if len(plan2.Faults) != len(plan.Faults) {
			t.Fatalf("reparse changed fault count: %d != %d", len(plan2.Faults), len(plan.Faults))
		}
		// A parsed spec never contains empty edge endpoints for message
		// faults (the parser must reject them, not store them).
		for _, fa := range plan.Faults {
			if fa.Kind != FaultCrash && (fa.From == "" || fa.To == "" || fa.Var == "") {
				t.Fatalf("accepted spec %q produced fault with empty edge field: %+v", spec, fa)
			}
			if strings.Contains(string(fa.From), ",") || strings.Contains(fa.Var, ",") {
				t.Fatalf("accepted spec %q smuggled a comma into a field: %+v", spec, fa)
			}
		}
	})
}

// FuzzDeliver throws arbitrary messages at the process boundary of a
// running session, where names become ordinals. A delivery for a
// processor not hosted here is the caller's error; any other is taken,
// and one that names nothing the schedule sends — or another era — can
// neither panic the receiver nor change what the run computes.
func FuzzDeliver(f *testing.F) {
	f.Add("x", "y", "q", 1, int64(0), uint64(9)) // a name no era schedules
	f.Add("a", "b", "u", 1, int64(3), uint64(9)) // a scheduled name, from another era
	f.Add("b", "d", "v", 0, int64(-1), uint64(0))
	f.Add("a", "b", "u", 2, int64(0), uint64(1)) // off the machine
	f.Add("", "", "", -1, int64(0), uint64(0))
	f.Fuzz(func(t *testing.T, from, to, v string, toPE int, epoch int64, seq uint64) {
		s, flat := chainSchedule(t)
		pl := newTestPlane()
		ses, err := (&Runner{Inputs: pits.Env{"x0": pits.Num(5)}}).StartSession(s, flat, []bool{true, true}, pl)
		if err != nil {
			t.Fatal(err)
		}
		m := RemoteMsg{From: graph.NodeID(from), To: graph.NodeID(to), Var: v, ToPE: toPE, Epoch: epoch, Seq: seq, Val: pits.Num(99)}
		err = ses.Deliver(m)
		if hosted := toPE == 0 || toPE == 1; hosted == (err != nil) {
			t.Errorf("delivery for PE %d: %v", toPE, err)
		} else if err != nil && !strings.Contains(err.Error(), "not hosted here") {
			t.Errorf("refusal reads %q", err)
		}
		scheduled := epoch == 0 && (m.From == "a" && m.To == "b" && v == "u" && toPE == 1 || m.From == "b" && m.To == "d" && v == "v" && toPE == 0)
		if scheduled {
			ses.Abort(fmt.Errorf("a forged copy of a scheduled message may do anything but panic"))
			ses.Wait()
			return
		}
		waitEvent(t, pl.idle, "the run to go idle")
		ses.FinishRun()
		p, err := ses.Wait()
		if err != nil || p.Outputs["e.out"] != pits.Num(23) {
			t.Errorf("outputs %v, error %v; want out = 23", p, err)
		}
	})
}
