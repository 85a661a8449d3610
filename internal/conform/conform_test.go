package conform

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestGenerateDeterministic: a case is a pure function of its seed.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		aj, _ := json.Marshal(a.Design)
		bj, _ := json.Marshal(b.Design)
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: designs differ", seed)
		}
		if a.Heuristic != b.Heuristic || a.Machine.Name != b.Machine.Name {
			t.Fatalf("seed %d: heuristic/machine differ", seed)
		}
		af, bf := "", ""
		if a.Faults != nil {
			af = a.Faults.String()
		}
		if b.Faults != nil {
			bf = b.Faults.String()
		}
		if af != bf {
			t.Fatalf("seed %d: fault plans differ: %q != %q", seed, af, bf)
		}
		if !reflect.DeepEqual(a.Inputs, b.Inputs) {
			t.Fatalf("seed %d: inputs differ", seed)
		}
		if ChurnString(a.Churn) != ChurnString(b.Churn) {
			t.Fatalf("seed %d: churn scripts differ: %q != %q",
				seed, ChurnString(a.Churn), ChurnString(b.Churn))
		}
	}
}

// TestGenerateCoversFeatures: across a modest seed range the generator
// exercises hierarchy, fault plans, fleet churn, printing sinks and
// several heuristics — the variety the differential harness depends on.
func TestGenerateCoversFeatures(t *testing.T) {
	var subs, faults, crashes, prints, churns int
	heuristics := map[string]bool{}
	for seed := int64(0); seed < 50; seed++ {
		c, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		heuristics[c.Heuristic] = true
		if len(c.Churn) > 0 {
			churns++
		}
		for _, n := range c.Design.Nodes() {
			if n.Sub != nil {
				subs++
			}
		}
		if c.Faults != nil {
			faults++
			if c.HasCrash() {
				crashes++
			}
		}
		if n := c.Design.Node("snk"); n != nil && len(n.Routine) > 0 {
			for i := 0; i+5 <= len(n.Routine); i++ {
				if n.Routine[i:i+5] == "print" {
					prints++
					break
				}
			}
		}
	}
	if subs == 0 {
		t.Error("no generated case used hierarchy")
	}
	if faults == 0 {
		t.Error("no generated case had a fault plan")
	}
	if crashes == 0 {
		t.Error("no generated case crashed a processor")
	}
	if prints == 0 {
		t.Error("no generated case printed")
	}
	if churns == 0 {
		t.Error("no generated case churned the fleet")
	}
	if len(heuristics) < 3 {
		t.Errorf("only %d heuristics drawn across 50 seeds", len(heuristics))
	}
}

// TestChurnSpecRoundTrip: churn scripts survive the spec string.
func TestChurnSpecRoundTrip(t *testing.T) {
	ops := []ChurnOp{{Op: "join", AtMS: 5}, {Op: "drain", Worker: 1, AtMS: 12}}
	spec := ChurnString(ops)
	if spec != "join@5,drain:1@12" {
		t.Errorf("spec rendered as %q", spec)
	}
	got, err := ParseChurn(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Errorf("round trip changed ops: %v != %v", got, ops)
	}
	for _, bad := range []string{"", "join", "drain@3", "drain:x@3", "flee@2", "join@-1"} {
		if _, err := ParseChurn(bad); err == nil {
			t.Errorf("ParseChurn(%q) accepted a bad spec", bad)
		}
	}
}

// churnEvents counts landed joins and drains across a report's engines.
func churnEvents(rep *Report) (joins, drains int) {
	for _, e := range rep.Engines {
		if e.Trace == nil {
			continue
		}
		for _, ev := range e.Trace.Events {
			switch {
			case ev.Kind == trace.WorkerDrained:
				drains++
			case ev.Kind == trace.PeerConnected && ev.Note == "join":
				joins++
			}
		}
	}
	return joins, drains
}

// holdOpen adds ~40ms delays on cross-processor messages so churn ops
// fire while work is genuinely in flight. It installs a chained pair
// when the schedule offers one — a second delayed message whose
// producer sits downstream of the first delay's consumer. The chain is
// what keeps a run open across a crash-recovery barrier: the barrier
// re-sends the first (already-sent) message outside the fault
// injector, collapsing that hold, but the second producer then sends
// fresh and re-arms the delay. Returns whether any hold was installed
// and whether it chains.
func holdOpen(c *Case, t *testing.T) (held, chained bool) {
	t.Helper()
	_, sc, err := c.prepare()
	if err != nil {
		t.Fatalf("seed %d: %v", c.Seed, err)
	}
	hold := func(m sched.Msg) {
		if c.Faults == nil {
			c.Faults = &exec.FaultPlan{}
		}
		c.Faults.Faults = append(c.Faults.Faults, exec.Fault{
			Kind: exec.FaultDelay, From: m.From, To: m.To, Var: m.Var,
			Delay: 40000, Count: 1})
	}
	first := -1
	for i, m := range sc.Msgs {
		if m.FromPE != m.ToPE {
			first = i
			break
		}
	}
	if first < 0 {
		return false, false
	}
	hold(sc.Msgs[first])
	// Transitive successors of the first hold's consumer, over the
	// schedule's message records (the task graph's data dependencies).
	down := map[graph.NodeID]bool{sc.Msgs[first].To: true}
	queue := []graph.NodeID{sc.Msgs[first].To}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, m := range sc.Msgs {
			if m.From == n && !down[m.To] {
				down[m.To] = true
				queue = append(queue, m.To)
			}
		}
	}
	for _, m := range sc.Msgs {
		if m.FromPE != m.ToPE && down[m.From] {
			hold(m)
			return true, true
		}
	}
	return true, false
}

// TestChurnCasesStayConformant forces churn scripts onto generated
// cases held open by a delayed cross-processor message, so the ops land
// mid-run (not just race the finish). Every engine must still agree on
// outputs and printed lines, and across the batch at least one drain
// and one join must actually land — the drain against a healthy fleet,
// the join reviving a processor a crash fault killed (a join on a
// healthy fleet is rightly rejected for lack of capacity).
func TestChurnCasesStayConformant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full multi-engine cases")
	}
	tried, joins, drains := 0, 0, 0
	for seed := int64(0); seed < 60 && tried < 3; seed++ {
		c, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if c.Machine.NumPE() < 2 {
			continue
		}
		c.Faults = nil
		held, chained := holdOpen(c, t)
		if !held || !chained {
			continue // the crash+join leg below needs a chained hold to survive recovery
		}
		tried++
		c.Churn = []ChurnOp{{Op: "drain", Worker: 0, AtMS: 4}}
		rep, err := RunCase(context.Background(), c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d diverged under churn drain: %v", seed, rep.Divergences)
		}
		j, d := churnEvents(rep)
		joins, drains = joins+j, drains+d

		// Same case again, now with a crash clearing a processor and a
		// join reviving it on a spare worker.
		crashed := false
		for pe := 0; pe < c.Machine.NumPE() && !crashed; pe++ {
			if len(rep.Schedule.PESlots(pe)) > 0 {
				c.Faults.Faults = append(c.Faults.Faults, exec.Fault{
					Kind: exec.FaultCrash, PE: pe, Slot: 0})
				crashed = true
			}
		}
		if !crashed {
			continue
		}
		c.Churn = []ChurnOp{{Op: "join", AtMS: 2}}
		rep, err = RunCase(context.Background(), c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Errorf("seed %d diverged under crash+join: %v", seed, rep.Divergences)
		}
		j, d = churnEvents(rep)
		joins, drains = joins+j, drains+d
	}
	if tried == 0 {
		t.Fatal("no multi-processor case with cross-processor traffic found in seeds 0..29")
	}
	if drains == 0 {
		t.Error("no churn drain landed mid-run in any engine")
	}
	if joins == 0 {
		t.Error("no churn join landed mid-run in any engine")
	}
}

// TestSweepSmoke: a small deterministic sweep across all four engines
// finds zero divergences. The full 25-seed acceptance sweep runs via
// `make conform`; this keeps the unit suite fast.
func TestSweepSmoke(t *testing.T) {
	seeds := int64(8)
	if testing.Short() {
		seeds = 3
	}
	res := Sweep(context.Background(), SweepOptions{
		Start: 0, Seeds: seeds, Jobs: 2, Log: t.Logf,
	})
	for _, err := range res.Errors {
		t.Errorf("harness error: %v", err)
	}
	for i, rep := range res.Failures {
		t.Errorf("seed %d diverged: %v", rep.Case.Seed, rep.Divergences)
		_ = i
	}
	if res.Ran != int(seeds) {
		t.Errorf("ran %d cases, want %d", res.Ran, seeds)
	}
}

// TestLostCasesDeadlockAlike: a small seeded set of Lost cases, each
// dropping one copy between processors with Retry off. Every executing
// engine must return the same deadlock report — the runner in virtual
// time, and a fleet of two daemons over the in-process transport and
// over TCP — the TCP fleet within a second, and no oracle may fire.
func TestLostCasesDeadlockAlike(t *testing.T) {
	ran := 0
	for seed := int64(0); ran < 4; seed++ {
		c, err := GenerateLost(seed)
		if err != nil {
			t.Fatal(err)
		}
		if c == nil {
			continue // nothing crosses processors
		}
		ran++
		rep, err := RunCase(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Errorf("seed %d (%s): %v", seed, c.Faults, rep.Divergences)
			continue
		}
		for _, name := range []string{"runner", "inproc", "tcp"} {
			if e := rep.Engine(name); e.Err == nil || !strings.HasPrefix(e.Err.Error(), "exec: run deadlocked: ") {
				t.Errorf("seed %d: %s returned %v, want a deadlock report", seed, name, e.Err)
			}
		}
		t.Logf("seed %d (%s, %s): %v; tcp in %v", seed, c.Heuristic, c.Machine.Name, rep.Engine("tcp").Err, rep.Engine("tcp").Took)
	}
}

// findSkewCase locates the first seed whose schedule actually moves
// messages between processors, so a communication-cost skew must show
// up as a trace/makespan divergence.
func findSkewCase(t *testing.T) *Report {
	t.Helper()
	for seed := int64(0); seed < 60; seed++ {
		c, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c.Faults = nil // keep the trace oracles armed
		c.SkewComm = 1000
		rep, err := RunCase(context.Background(), c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			return rep
		}
	}
	t.Fatal("no seed in 0..59 produced a cross-processor schedule; generator too weak")
	return nil
}

// TestSkewCommProducesMinimizedReplayableRepro is the harness's
// acceptance loop: deliberately breaking one engine's communication
// cost yields a divergence, the minimizer shrinks the case while
// preserving the divergence class, the repro directory round-trips
// through disk, and replaying it reproduces the same divergence.
func TestSkewCommProducesMinimizedReplayableRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("runs many full cases")
	}
	ctx := context.Background()
	rep := findSkewCase(t)
	wantClasses := rep.Classes()
	if !wantClasses["trace-vs-sim"] && !wantClasses["makespan"] {
		t.Fatalf("skew produced unexpected divergence classes: %v", rep.Divergences)
	}
	for _, d := range rep.Divergences {
		if d.Oracle == "outputs" || d.Oracle == "printed" || d.Oracle == "error" {
			t.Fatalf("skewing the model must not change data: %v", d)
		}
	}

	origTasks := len(rep.Case.Design.Tasks())
	minCase, minRep := Shrink(ctx, rep, 40)
	if !minRep.Failed() {
		t.Fatal("minimized case no longer diverges")
	}
	overlap := false
	for o := range minRep.Classes() {
		if wantClasses[o] {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("minimized divergence classes %v share nothing with original %v",
			minRep.Classes(), wantClasses)
	}
	if got := len(minCase.Design.Tasks()); got > origTasks {
		t.Errorf("minimization grew the design: %d -> %d tasks", origTasks, got)
	}

	dir := filepath.Join(t.TempDir(), "repro")
	if err := WriteRepro(dir, minRep); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{reproDesignFile, reproMachineFile, reproCaseFile, reproReportFile} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("repro dir missing %s: %v", f, err)
		}
	}

	replayed, err := Replay(ctx, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.Failed() {
		t.Fatal("replayed repro did not diverge")
	}
	overlap = false
	for o := range replayed.Classes() {
		if minRep.Classes()[o] {
			overlap = true
		}
	}
	if !overlap {
		t.Fatalf("replay diverged differently: %v vs %v", replayed.Classes(), minRep.Classes())
	}
}

// TestReproRoundTrip: writing and loading a repro preserves the case.
func TestReproRoundTrip(t *testing.T) {
	c, err := Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	c.SkewComm = 7
	rep := &Report{Case: c}
	dir := t.TempDir()
	if err := WriteRepro(dir, rep); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRepro(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != c.Seed || got.Heuristic != c.Heuristic || got.SkewComm != c.SkewComm {
		t.Errorf("scalars did not round-trip: %+v", got)
	}
	if !reflect.DeepEqual(got.Inputs, c.Inputs) {
		t.Errorf("inputs did not round-trip: %v != %v", got.Inputs, c.Inputs)
	}
	aj, _ := json.Marshal(c.Design)
	bj, _ := json.Marshal(got.Design)
	if string(aj) != string(bj) {
		t.Error("design did not round-trip")
	}
	wantF, gotF := "", ""
	if c.Faults != nil {
		wantF = c.Faults.String()
	}
	if got.Faults != nil {
		gotF = got.Faults.String()
	}
	if wantF != gotF {
		t.Errorf("faults did not round-trip: %q != %q", gotF, wantF)
	}
	// The loaded case must actually run.
	if _, _, err := got.prepare(); err != nil {
		t.Errorf("loaded case does not prepare: %v", err)
	}
}

// FuzzConform: the differential harness as a native fuzz target. Any
// seed the fuzzer invents must run through all four engines with every
// oracle holding.
func FuzzConform(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		c, err := Generate(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		rep, err := RunCase(context.Background(), c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d diverged: %v", seed, rep.Divergences)
		}
		// Every 4th seed also runs the multi-run concurrency scenario:
		// the same generator-grade cases multiplexed on a shared fleet,
		// each checked byte-identical to its solo baseline. Sampled, not
		// universal, to keep fuzz throughput on the single-case oracles.
		if seed%4 == 0 {
			mc, err := GenerateMulti(seed)
			if err != nil {
				t.Fatalf("multi seed %d: %v", seed, err)
			}
			mrep, err := RunMulti(context.Background(), mc)
			if err != nil {
				t.Fatalf("multi seed %d: %v", seed, err)
			}
			if mrep.Failed() {
				t.Fatalf("multi seed %d diverged: %v", seed, mrep.Divergences)
			}
		}
	})
}
