package conform

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/wire"
)

// MultiCase is a concurrency conformance scenario: several independent
// seeded cases executed at the same time on ONE shared worker fleet.
// The oracle is isolation — every run must compute exactly what it
// computes alone. Worker daemons multiplex runs keyed by run ID, so a
// frame, checkpoint or barrier leaking between concurrent runs shows
// up here as an outputs/printed divergence against the solo baseline.
type MultiCase struct {
	Seed  int64
	Cases []*Case
}

// GenerateMulti draws the multi-run scenario for a seed: two or three
// sub-cases (each a normal Generate case under a derived sub-seed)
// destined for one shared two-worker fleet. Determinism matches
// Generate: the same seed always yields the same scenario.
//
// Two normalisations keep the oracle sharp. At least one sub-case is
// always clean (no faults, no churn): a run with fault injection or
// fleet churn active must never disturb a clean neighbour, which is
// the isolation property this suite exists to check. And at most one
// sub-case keeps a churn script: churn is fleet-level here (the fleet
// is shared), and concurrent drain scripts would race each other over
// the membership floor, turning placement noise into spurious
// harness-side rejections.
//
// A third keeps the solo baseline the right answer: no sub-case crashes
// a processor while the kept churn script drains a worker. A drain is a
// planned shrink — the worker's processors leave every run it serves —
// so on a two-processor machine it can take a run's one survivor, and
// the crash then its last processor: "exec: all processors crashed" is
// that run's correct verdict, which no solo baseline shares. The
// crashes go; the sub-case keeps its message faults.
func GenerateMulti(seed int64) (*MultiCase, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6d756c7469)) // "multi"
	k := 2 + rng.Intn(2)
	mc := &MultiCase{Seed: seed}
	for i := 0; i < k; i++ {
		sub := seed*131 + int64(i)*17 + 1
		c, err := Generate(sub)
		if err != nil {
			return nil, fmt.Errorf("multi seed %d: sub-case %d: %w", seed, i, err)
		}
		mc.Cases = append(mc.Cases, c)
	}
	churned, drains := false, false
	for _, c := range mc.Cases {
		if len(c.Churn) > 0 {
			if churned {
				c.Churn = nil
			}
			churned = true
			drains = drains || slices.ContainsFunc(c.Churn, func(o ChurnOp) bool { return o.Op == "drain" })
		}
	}
	for _, c := range mc.Cases {
		if drains && c.HasCrash() {
			c.Faults.Faults = slices.DeleteFunc(slices.Clone(c.Faults.Faults), func(f exec.Fault) bool { return f.Kind == exec.FaultCrash })
			if len(c.Faults.Faults) == 0 {
				c.Faults = nil
			}
		}
	}
	clean := false
	for _, c := range mc.Cases {
		if c.Faults == nil && len(c.Churn) == 0 {
			clean = true
			break
		}
	}
	if !clean {
		last := mc.Cases[len(mc.Cases)-1]
		last.Faults = nil
		last.Churn = nil
	}
	return mc, nil
}

// MultiRun is one sub-case's pair of observations: the solo baseline
// (the virtual-time single-process runner, fully deterministic) and
// the same case executed concurrently with its neighbours on the
// shared fleet.
type MultiRun struct {
	Case  *Case
	Solo  *EngineRun
	Fleet *EngineRun
}

// MultiReport is the outcome of running a MultiCase.
type MultiReport struct {
	Multi       *MultiCase
	Runs        []*MultiRun
	Divergences []Divergence
}

// Failed reports whether any oracle fired.
func (r *MultiReport) Failed() bool { return len(r.Divergences) > 0 }

// Classes returns the distinct oracle classes that fired.
func (r *MultiReport) Classes() map[string]bool {
	cs := map[string]bool{}
	for _, d := range r.Divergences {
		cs[d.Oracle] = true
	}
	return cs
}

// RunMulti executes every sub-case concurrently on one shared
// two-worker in-process fleet and checks the isolation oracle: each
// run's external outputs and printed lines must be byte-identical to
// its own solo baseline, exactly as if the neighbours did not exist.
// Traces are not compared — fleet runs are wall-clock and their
// timings legitimately differ run to run (the same reason RunCase
// checks trace-vs-sim only on the virtual-time engine) — but outputs
// and printed lines are timing-independent, so they are THE isolation
// oracle, mirroring how the elasticity oracle works for churn.
//
// Churn scripts (at most one sub-case has one, see GenerateMulti) fire
// against the fleet's persistent control listener, so a drain
// evacuates the worker from EVERY run it hosts while the clean
// neighbours are mid-flight — the strongest version of the oracle.
//
// A non-nil error means the harness could not set the scenario up;
// engine failures are "error"-class divergences in the report.
func RunMulti(ctx context.Context, mc *MultiCase) (*MultiReport, error) {
	rep := &MultiReport{Multi: mc}

	// Prepare every sub-case and take its solo baseline first: the
	// baseline is single-process and deterministic, so running it before
	// the fleet exists keeps "solo" honest.
	type prepared struct {
		flat *graph.Flat
		sc   *sched.Schedule
	}
	preps := make([]prepared, len(mc.Cases))
	for i, c := range mc.Cases {
		flat, sc, err := c.prepare()
		if err != nil {
			return nil, fmt.Errorf("multi seed %d: case %d (seed %d): %w", mc.Seed, i, c.Seed, err)
		}
		preps[i] = prepared{flat: flat, sc: sc}
		solo := &EngineRun{Name: fmt.Sprintf("solo[%d]", i)}
		r := c.runner(true)
		if res, err := r.Run(sc, flat); err != nil {
			solo.Err = err
		} else {
			fillEngine(solo, res, r)
		}
		rep.Runs = append(rep.Runs, &MultiRun{Case: c, Solo: solo})
	}

	tr := wire.Inproc()
	listen := func(i int) string { return fmt.Sprintf("conform-multi-%d-w%d", mc.Seed, i) }
	addrs, stop, err := startWorkers(tr, listen, 2)
	if err != nil {
		return nil, fmt.Errorf("multi seed %d: workers: %w", mc.Seed, err)
	}
	defer stop()

	f := &wire.Fleet{
		Transport:      tr,
		Control:        fmt.Sprintf("conform-multi-%d-ctl", mc.Seed),
		Seed:           addrs,
		HeartbeatEvery: 50 * time.Millisecond,
		PeerTimeout:    5 * time.Second,
	}
	if err := f.Start(); err != nil {
		return nil, fmt.Errorf("multi seed %d: fleet: %w", mc.Seed, err)
	}
	defer f.Close()

	rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()

	// Fire the (single) churn script against the fleet control plane.
	for _, c := range mc.Cases {
		if len(c.Churn) == 0 {
			continue
		}
		joiner := ""
		if churnNeedsJoin(c.Churn) {
			jaddrs, jstop, err := startWorkers(tr, func(int) string {
				return fmt.Sprintf("conform-multi-%d-joiner", mc.Seed)
			}, 1)
			if err != nil {
				return nil, fmt.Errorf("multi seed %d: joiner: %w", mc.Seed, err)
			}
			defer jstop()
			joiner = jaddrs[0]
		}
		go applyChurn(rctx, tr, f.Addr(), joiner, c.Churn, addrs)
		break
	}

	var wg sync.WaitGroup
	for i, c := range mc.Cases {
		wg.Add(1)
		go func(i int, c *Case) {
			defer wg.Done()
			fleet := &EngineRun{Name: fmt.Sprintf("fleet[%d]", i)}
			r := c.runner(false)
			res, err := f.Run(rctx, r, preps[i].sc, preps[i].flat)
			if err != nil {
				fleet.Err = err
			} else {
				fillEngine(fleet, res, r)
			}
			rep.Runs[i].Fleet = fleet
		}(i, c)
	}
	wg.Wait()

	checkMulti(rep)
	return rep, nil
}

// checkMulti runs the isolation oracle over every sub-run.
func checkMulti(rep *MultiReport) {
	for i, r := range rep.Runs {
		name := fmt.Sprintf("fleet[%d] (seed %d)", i, r.Case.Seed)
		if r.Solo.Err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "error", Engine: fmt.Sprintf("solo[%d]", i), Detail: r.Solo.Err.Error()})
			continue
		}
		if r.Fleet.Err != nil {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "error", Engine: name, Detail: r.Fleet.Err.Error()})
			continue
		}
		if !sameBytes(r.Fleet.OutBytes, r.Solo.OutBytes) {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "outputs", Engine: name,
				Detail: fmt.Sprintf("outputs differ from solo run: solo %v, fleet %v",
					r.Solo.Outputs, r.Fleet.Outputs)})
		}
		if !samePrinted(r.Fleet.Printed, r.Solo.Printed) {
			rep.Divergences = append(rep.Divergences, Divergence{
				Oracle: "printed", Engine: name,
				Detail: fmt.Sprintf("printed lines differ from solo run: solo %q, fleet %q",
					r.Solo.Printed, r.Fleet.Printed)})
		}
		// Each run has its own runner, so a count one run of the shared
		// fleet leaked into another's shows here.
		for _, e := range []*EngineRun{r.Solo, r.Fleet} {
			if d := checkCounts(e); d != "" {
				rep.Divergences = append(rep.Divergences, Divergence{Oracle: "counts", Engine: e.Name, Detail: d})
			}
		}
	}
}

// samePrinted compares printed-line slices treating nil and empty as
// equal.
func samePrinted(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runMultiForShrink is RunMulti behind a seam so ShrinkMulti's loop
// can be exercised with an injected oracle in tests.
var runMultiForShrink = RunMulti

// ShrinkMulti reduces a diverging multi-run scenario to a local
// minimum showing at least one of the original oracle classes. The
// cheapest reduction — tried before anything else — is dropping one
// concurrent run entirely: a divergence that survives alone implicates
// the engines, not the multiplexing, and every dropped run removes a
// whole coordinator's worth of re-execution cost from the remaining
// search. Only then does it descend into the per-case reductions
// (churn op, fault, leaf task, arc — see Shrink).
//
// budget bounds candidate re-executions; each one re-runs the whole
// concurrent scenario.
func ShrinkMulti(ctx context.Context, rep *MultiReport, budget int) (*MultiCase, *MultiReport) {
	classes := rep.Classes()
	bad := func(mc *MultiCase) *MultiReport {
		r, err := runMultiForShrink(ctx, mc)
		if err != nil {
			return nil
		}
		for o := range r.Classes() {
			if classes[o] {
				return r
			}
		}
		return nil
	}

	best, bestRep := rep.Multi, rep
	// Dissolve hierarchy first, like Shrink: per-case reductions only
	// operate on flat designs.
	if flat, err := flattenMulti(rep.Multi); err == nil && budget > 0 {
		budget--
		if r := bad(flat); r != nil {
			best, bestRep = flat, r
		}
	}

	for budget > 0 {
		improved := false
		for _, cand := range multiReductions(best) {
			if budget == 0 {
				break
			}
			budget--
			if r := bad(cand); r != nil {
				best, bestRep = cand, r
				improved = true
				break
			}
		}
		if !improved {
			break
		}
	}
	return best, bestRep
}

// flattenMulti rewrites every sub-case onto its flattened design.
func flattenMulti(mc *MultiCase) (*MultiCase, error) {
	out := &MultiCase{Seed: mc.Seed}
	for _, c := range mc.Cases {
		fc, err := rebuildFlat(c)
		if err != nil {
			return nil, err
		}
		out.Cases = append(out.Cases, fc)
	}
	return out, nil
}

// multiReductions enumerates one-step simplifications of a multi-run
// scenario, cheapest first: drop a concurrent run, then every
// per-case reduction applied to each sub-case in place.
func multiReductions(mc *MultiCase) []*MultiCase {
	var out []*MultiCase
	if len(mc.Cases) > 1 {
		for i := range mc.Cases {
			cc := &MultiCase{Seed: mc.Seed}
			cc.Cases = append(cc.Cases, mc.Cases[:i]...)
			cc.Cases = append(cc.Cases, mc.Cases[i+1:]...)
			out = append(out, cc)
		}
	}
	for i, c := range mc.Cases {
		for _, rc := range reductions(c) {
			cc := &MultiCase{Seed: mc.Seed, Cases: append([]*Case(nil), mc.Cases...)}
			cc.Cases[i] = rc
			out = append(out, cc)
		}
	}
	return out
}

// WriteMultiRepro writes a repro directory for a diverging multi-run
// scenario: one standard (individually replayable) repro subdirectory
// per sub-case, plus multi.txt summarising the concurrent scenario.
// There is no single-command multi replay — isolation failures are
// timing-dependent by nature — but each sub-case replays solo with
// `banger conform -repro DIR/case-K`, which immediately answers the
// first triage question: does the case diverge alone, or only when
// multiplexed?
func WriteMultiRepro(dir string, rep *MultiReport) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, r := range rep.Runs {
		sub := &Report{Case: r.Case, Engines: []*EngineRun{r.Solo, r.Fleet}}
		for _, d := range rep.Divergences {
			if strings.Contains(d.Engine, fmt.Sprintf("[%d]", i)) {
				sub.Divergences = append(sub.Divergences, d)
			}
		}
		if err := WriteRepro(filepath.Join(dir, fmt.Sprintf("case-%d", i)), sub); err != nil {
			return err
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "conform multi-run scenario seed=%d: %d concurrent runs on one shared 2-worker fleet\n",
		rep.Multi.Seed, len(rep.Multi.Cases))
	for i, c := range rep.Multi.Cases {
		fmt.Fprintf(&b, "  case-%d: seed=%d heuristic=%s machine=%s tasks=%d",
			i, c.Seed, c.Heuristic, c.Machine.Name, len(c.Design.Tasks()))
		if c.Faults != nil {
			fmt.Fprintf(&b, " faults=%s", c.Faults)
		}
		if len(c.Churn) > 0 {
			fmt.Fprintf(&b, " churn=%s", ChurnString(c.Churn))
		}
		b.WriteString("\n")
	}
	if len(rep.Divergences) == 0 {
		b.WriteString("PASS: every run matched its solo baseline\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d divergence(s)\n", len(rep.Divergences))
		for _, d := range rep.Divergences {
			fmt.Fprintf(&b, "  %s\n", d)
		}
	}
	b.WriteString("replay a sub-case alone: banger conform -repro <dir>/case-K\n")
	return os.WriteFile(filepath.Join(dir, "multi.txt"), []byte(b.String()), 0o644)
}
