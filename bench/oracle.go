package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/serve"
)

// oracle checks replies against answers worked out independently of
// the code under test: run replies against the sequential interpreter
// (core.Rehearse — never a runner), predictions against the makespan
// bounds every valid schedule obeys.
type oracle struct {
	st   *stack
	flat *graph.Flat
	// want caches the rehearsed outputs per input value.
	want map[float64]*rehearsed
	// bounds caches [LowerBound, SerialTime] per weight set.
	bounds map[int][2]int64
}

type rehearsed struct {
	outputs map[string]string
	printed []string
}

func newOracle(st *stack) (*oracle, error) {
	flat, err := st.in.design.Flatten()
	if err != nil {
		return nil, err
	}
	return &oracle{st: st, flat: flat, want: map[float64]*rehearsed{}, bounds: map[int][2]int64{}}, nil
}

// check returns nil when the reply is the right answer to its request.
func (o *oracle) check(r reply) error {
	if r.err != nil {
		return fmt.Errorf("request %d: %w", r.index, r.err)
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %s", r.index, r.status, r.body)
	}
	var got serve.RunResponse
	if err := json.Unmarshal(r.body, &got); err != nil {
		return fmt.Errorf("request %d: reply: %w", r.index, err)
	}
	slot := int(r.index % int64(len(o.st.in.bodies)))
	wantCache := "hit"
	if o.st.w.variants > 1 {
		wantCache = "miss"
	}
	if got.Cache != wantCache {
		return fmt.Errorf("request %d: cache %q, want %q", r.index, got.Cache, wantCache)
	}
	if o.st.w.mode == "schedule" {
		return o.checkPrediction(r.index, slot, got)
	}
	return o.checkRun(r.index, o.st.in.xs[slot], got)
}

// checkPrediction holds a predicted makespan to LowerBound ≤ makespan
// ≤ SerialTime on the request's own weights, the processor count to
// the machine, and a cache hit to the prediction that primed it.
func (o *oracle) checkPrediction(index int64, slot int, got serve.RunResponse) error {
	m := o.st.in.machine
	variant := 0
	if o.st.w.variants > 1 {
		variant = slot
	}
	bound, ok := o.bounds[variant]
	if !ok {
		setWeights(o.flat.Graph, o.st.in.weights[variant])
		lower, err := sched.LowerBound(o.flat.Graph, m)
		if err != nil {
			return err
		}
		bound[0] = int64(lower)
		for _, n := range o.flat.Graph.Tasks() {
			bound[1] += int64(m.ExecTime(n.Work, 0))
		}
		o.bounds[variant] = bound
	}
	if got.MakespanUS < bound[0] || got.MakespanUS > bound[1] {
		return fmt.Errorf("request %d: makespan %dus outside [%d, %d]", index, got.MakespanUS, bound[0], bound[1])
	}
	if got.PEs < 1 || got.PEs > m.NumPE() {
		return fmt.Errorf("request %d: %d PEs on a %d-PE machine", index, got.PEs, m.NumPE())
	}
	if o.st.w.variants == 1 {
		p := o.st.primed
		if got.MakespanUS != p.MakespanUS || got.PEs != p.PEs || got.Msgs != p.Msgs || got.Speedup != p.Speedup {
			return fmt.Errorf("request %d: hit predicts %dus/%d PEs/%d msgs, the miss that primed it %dus/%d PEs/%d msgs",
				index, got.MakespanUS, got.PEs, got.Msgs, p.MakespanUS, p.PEs, p.Msgs)
		}
	}
	return nil
}

// checkRun holds a run's outputs and print lines to the rehearsal of
// the same project on the same input.
func (o *oracle) checkRun(index int64, x float64, got serve.RunResponse) error {
	want, ok := o.want[x]
	if !ok {
		setWeights(o.st.in.design, o.st.in.weights[0])
		env, err := core.Open(&project.Project{Name: "oracle", Design: o.st.in.design,
			Machine: o.st.in.machine, Inputs: pits.Env{"x": pits.Num(x)}})
		if err != nil {
			return err
		}
		reh, err := env.Rehearse()
		if err != nil {
			return err
		}
		// A run reports each external output under its plain name and
		// qualified by the task that produced it.
		want = &rehearsed{outputs: map[string]string{}}
		for task, vars := range env.Flat.ExternalOut {
			for _, v := range vars {
				val := fmt.Sprintf("%s", reh.Outputs[v])
				want.outputs[v], want.outputs[string(task)+"."+v] = val, val
			}
		}
		for _, t := range reh.Tasks {
			for _, line := range t.Printed {
				want.printed = append(want.printed, string(t.Task)+": "+line)
			}
		}
		sort.Strings(want.printed)
		o.want[x] = want
	}
	if len(want.outputs) == 0 {
		return fmt.Errorf("request %d: the rehearsal produced no outputs to compare", index)
	}
	if !reflect.DeepEqual(got.Outputs, want.outputs) {
		return fmt.Errorf("request %d (x=%v): outputs %v, rehearsal says %v", index, x, got.Outputs, want.outputs)
	}
	printed := append([]string(nil), got.Printed...)
	sort.Strings(printed)
	if len(printed) != len(want.printed) || (len(printed) > 0 && !reflect.DeepEqual(printed, want.printed)) {
		return fmt.Errorf("request %d: printed %v, rehearsal says %v", index, printed, want.printed)
	}
	if got.Tasks != int64(len(o.flat.Graph.Tasks())) {
		return fmt.Errorf("request %d: %d tasks ran of %d", index, got.Tasks, len(o.flat.Graph.Tasks()))
	}
	return nil
}
