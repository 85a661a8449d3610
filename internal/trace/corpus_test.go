package trace_test

import (
	"testing"

	"repro/internal/conform"
	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestSummarizeAgreesWithSpansOnConformCorpus: the conformance corpus's
// designs, each scheduled by its case's heuristic, give two logs — the
// simulator's replay, which is the schedule's own times, and a
// virtual-time run under the case's faults — and each of them, and each
// with one task event dropped, pairs to the same counts, busy time and
// error through Summarize as through Spans.
func TestSummarizeAgreesWithSpansOnConformCorpus(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := c.Design.Flatten()
		if err != nil {
			t.Fatal(err)
		}
		if err := conform.Calibrate(flat, c.Inputs); err != nil {
			t.Fatal(err)
		}
		s, err := sched.ByName(c.Heuristic)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.Schedule(flat.Graph, c.Machine)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := exec.Simulate(sc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		logs := []*trace.Trace{sim}
		r := &exec.Runner{Inputs: c.Inputs, VirtualTime: true, Faults: c.Faults, Retry: c.Faults != nil}
		if res, err := r.Run(sc, flat); err == nil {
			logs = append(logs, res.Trace)
		}
		for _, tr := range logs {
			trace.CheckSpans(t, tr)
			for i, e := range tr.Events {
				if e.Kind == trace.TaskStart || e.Kind == trace.TaskEnd {
					cut := append(append([]trace.Event(nil), tr.Events[:i]...), tr.Events[i+1:]...)
					if _, err := trace.CheckSpans(t, &trace.Trace{Events: cut}); err == nil {
						t.Errorf("seed %d: a log without its event %d paired", seed, i)
					}
					break
				}
			}
		}
	}
}
