package conform

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenerateMultiDeterministic: same seed, same scenario — sub-case
// count, sub-seeds, heuristics, fault specs and churn scripts all
// reproduce exactly.
func TestGenerateMultiDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, err := GenerateMulti(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := GenerateMulti(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(a.Cases) != len(b.Cases) {
			t.Fatalf("seed %d: %d vs %d cases", seed, len(a.Cases), len(b.Cases))
		}
		for i := range a.Cases {
			ca, cb := a.Cases[i], b.Cases[i]
			if ca.Seed != cb.Seed || ca.Heuristic != cb.Heuristic {
				t.Errorf("seed %d case %d: (%d,%s) vs (%d,%s)",
					seed, i, ca.Seed, ca.Heuristic, cb.Seed, cb.Heuristic)
			}
			fa, fb := "", ""
			if ca.Faults != nil {
				fa = ca.Faults.String()
			}
			if cb.Faults != nil {
				fb = cb.Faults.String()
			}
			if fa != fb {
				t.Errorf("seed %d case %d: faults %q vs %q", seed, i, fa, fb)
			}
			if ChurnString(ca.Churn) != ChurnString(cb.Churn) {
				t.Errorf("seed %d case %d: churn %q vs %q",
					seed, i, ChurnString(ca.Churn), ChurnString(cb.Churn))
			}
		}
	}
}

// TestGenerateMultiNormalised: every scenario keeps at least one clean
// sub-case (the isolation witness) and at most one churned one (the
// fleet is shared; concurrent drain scripts would race the floor).
func TestGenerateMultiNormalised(t *testing.T) {
	sawChurn, sawFaults := false, false
	for seed := int64(0); seed < 30; seed++ {
		mc, err := GenerateMulti(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(mc.Cases); n < 2 || n > 3 {
			t.Errorf("seed %d: %d cases, want 2-3", seed, n)
		}
		clean, churned := 0, 0
		for _, c := range mc.Cases {
			if c.Faults == nil && len(c.Churn) == 0 {
				clean++
			}
			if len(c.Churn) > 0 {
				churned++
				sawChurn = true
			}
			if c.Faults != nil {
				sawFaults = true
			}
		}
		if clean == 0 {
			t.Errorf("seed %d: no clean sub-case", seed)
		}
		if churned > 1 {
			t.Errorf("seed %d: %d churned sub-cases, want at most 1", seed, churned)
		}
	}
	if !sawChurn {
		t.Error("no seed in 0..29 drew churn; generator too weak")
	}
	if !sawFaults {
		t.Error("no seed in 0..29 drew faults; generator too weak")
	}
}

// TestMultiCrashesNoRunBesideADrain: a sub-case that crashes a
// processor never shares its fleet with a drain script. Multi seed -564
// did: its full:2 sub-case crashed PE 1 at its second task while its
// neighbour's script drained worker 0, and when the drain landed first
// it had taken PE 0 out of that run, so the crash took the run's last
// processor and the fleet run failed as "exec: all processors crashed"
// (reproduced every time by holding the crash until the drain's
// verdict). That verdict is right; the scenario asked for the
// impossible. The sub-case keeps its duplicate fault.
func TestMultiCrashesNoRunBesideADrain(t *testing.T) {
	for _, seeds := range [][2]int64{{-600, -540}, {0, 60}} {
		for seed := seeds[0]; seed < seeds[1]; seed++ {
			mc, err := GenerateMulti(seed)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			drain := false
			for _, c := range mc.Cases {
				drain = drain || strings.Contains(ChurnString(c.Churn), "drain")
			}
			for i, c := range mc.Cases {
				if drain && c.HasCrash() {
					t.Errorf("multi seed %d: sub-case %d crashes (%s) beside a drain", seed, i, c.Faults)
				}
			}
		}
	}
	mc, err := GenerateMulti(-564)
	if err != nil {
		t.Fatal(err)
	}
	if got := mc.Cases[1].Faults.String(); got != "dup:t0_2->t1_1:v0_2" {
		t.Errorf("multi seed -564 sub-case 1 faults %q, want its duplicate alone", got)
	}
}

// TestMultiConform runs a few multi-run scenarios for real: concurrent
// cases on one shared fleet, every run byte-identical to its solo
// baseline. Seeds are chosen from the deterministic generator, so
// together with TestGenerateMultiNormalised this covers clean
// neighbours running beside faulted and churned ones.
func TestMultiConform(t *testing.T) {
	seeds := []int64{0, 1, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		mc, err := GenerateMulti(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := RunMulti(context.Background(), mc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d diverged: %v", seed, rep.Divergences)
		}
		if len(rep.Runs) != len(mc.Cases) {
			t.Errorf("seed %d: %d runs for %d cases", seed, len(rep.Runs), len(mc.Cases))
		}
	}
}

// TestSweepMultiLeg: the sweep's multi leg runs for seeds divisible by
// MultiEvery and counts into the result.
func TestSweepMultiLeg(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep leg in -short")
	}
	res := Sweep(context.Background(), SweepOptions{
		Start: 0, Seeds: 2, Jobs: 2, MultiEvery: 2, Log: t.Logf,
	})
	for _, err := range res.Errors {
		t.Errorf("harness error: %v", err)
	}
	if res.MultiRan != 1 {
		t.Errorf("multi ran %d times, want 1 (seeds 0-1, every 2nd)", res.MultiRan)
	}
	if len(res.Failures) > 0 || len(res.MultiFailures) > 0 {
		t.Errorf("unexpected divergences: %v / %v", res.Failures, res.MultiFailures)
	}
}

// TestMultiReductionsDropRunFirst: the cheapest reductions — tried
// before any per-case surgery — drop one concurrent run each.
func TestMultiReductionsDropRunFirst(t *testing.T) {
	mc, err := GenerateMulti(0)
	if err != nil {
		t.Fatal(err)
	}
	reds := multiReductions(mc)
	if len(reds) < len(mc.Cases) {
		t.Fatalf("%d reductions for %d cases", len(reds), len(mc.Cases))
	}
	for i := 0; i < len(mc.Cases); i++ {
		if len(reds[i].Cases) != len(mc.Cases)-1 {
			t.Errorf("reduction %d has %d cases, want %d (a run-drop)",
				i, len(reds[i].Cases), len(mc.Cases)-1)
		}
	}
	// Everything after the run-drops keeps the full case count.
	for i := len(mc.Cases); i < len(reds); i++ {
		if len(reds[i].Cases) != len(mc.Cases) {
			t.Errorf("reduction %d has %d cases, want %d (per-case surgery)",
				i, len(reds[i].Cases), len(mc.Cases))
		}
	}
}

// TestShrinkMultiDropsRuns drives ShrinkMulti with an injected oracle
// (via the runMultiForShrink seam): the divergence "reproduces"
// whenever a target sub-case is present, so the minimizer must strip
// every other concurrent run and end at exactly one.
func TestShrinkMultiDropsRuns(t *testing.T) {
	mc, err := GenerateMulti(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mc.Cases) < 2 {
		t.Fatalf("seed 2 drew %d cases; test wants 2+", len(mc.Cases))
	}
	target := mc.Cases[len(mc.Cases)-1].Seed

	orig := runMultiForShrink
	defer func() { runMultiForShrink = orig }()
	runMultiForShrink = func(ctx context.Context, m *MultiCase) (*MultiReport, error) {
		rep := &MultiReport{Multi: m}
		for _, c := range m.Cases {
			if c.Seed == target {
				rep.Divergences = append(rep.Divergences,
					Divergence{Oracle: "outputs", Engine: "fleet[0]", Detail: "injected"})
			}
		}
		return rep, nil
	}

	rep := &MultiReport{Multi: mc, Divergences: []Divergence{
		{Oracle: "outputs", Engine: "fleet[0]", Detail: "injected"}}}
	min, minRep := ShrinkMulti(context.Background(), rep, 30)
	if len(min.Cases) != 1 {
		t.Fatalf("minimized to %d cases, want 1", len(min.Cases))
	}
	if min.Cases[0].Seed != target {
		t.Errorf("kept case seed %d, want %d", min.Cases[0].Seed, target)
	}
	if !minRep.Failed() {
		t.Error("minimized report no longer fails")
	}
}

// TestWriteMultiRepro: a multi repro directory holds one individually
// replayable sub-directory per run plus the scenario summary.
func TestWriteMultiRepro(t *testing.T) {
	mc, err := GenerateMulti(3)
	if err != nil {
		t.Fatal(err)
	}
	rep := &MultiReport{Multi: mc}
	for i, c := range mc.Cases {
		rep.Runs = append(rep.Runs, &MultiRun{Case: c,
			Solo:  &EngineRun{Name: "solo"},
			Fleet: &EngineRun{Name: "fleet"}})
		_ = i
	}
	rep.Divergences = []Divergence{{Oracle: "outputs", Engine: "fleet[0] (seed 1)", Detail: "x"}}

	dir := t.TempDir()
	if err := WriteMultiRepro(dir, rep); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "multi.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "FAIL: 1 divergence(s)") {
		t.Errorf("multi.txt missing failure summary:\n%s", b)
	}
	for i := range mc.Cases {
		sub := filepath.Join(dir, "case-"+string(rune('0'+i)))
		c, err := LoadRepro(sub)
		if err != nil {
			t.Fatalf("case-%d: %v", i, err)
		}
		if c.Seed != mc.Cases[i].Seed {
			t.Errorf("case-%d round-tripped seed %d, want %d", i, c.Seed, mc.Cases[i].Seed)
		}
	}
}
