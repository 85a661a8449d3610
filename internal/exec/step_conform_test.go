package exec_test

import (
	"testing"

	"repro/internal/conform"
	"repro/internal/exec"
	"repro/internal/sched"
)

// TestStepNeverBlocksConform drives the conformance generator's
// fault-free and message-fault cases, retried, on one goroutine in five
// shuffled orders each, and wants each trace byte-identical to the
// launched virtual-time run's. Crash cases need the barrier and are left
// out; churn only drives the distributed engines, so a churn case runs
// here as the fault-free case it is to a single-process runner.
func TestStepNeverBlocksConform(t *testing.T) {
	kinds := map[exec.FaultKind]int{}
	for seed := int64(1); seed <= 150; seed++ {
		c, err := conform.Generate(seed)
		if err != nil {
			t.Fatal(err)
		}
		if c.HasCrash() {
			continue
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
		runner := func() *exec.Runner {
			return &exec.Runner{Inputs: c.Inputs, VirtualTime: true, Faults: c.Faults, Retry: c.Faults != nil}
		}
		if c.Faults != nil {
			for _, f := range c.Faults.Faults {
				kinds[f.Kind]++
			}
		}
		want, err := runner().Run(sc, flat)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for order := int64(1); order <= 5; order++ {
			got, err := exec.DriveSteps(runner(), sc, flat, order)
			if err != nil {
				t.Fatalf("seed %d, order %d: %v", seed, order, err)
			}
			if err := exec.SameRun(got, want); err != nil {
				t.Fatalf("seed %d, order %d: %v", seed, order, err)
			}
		}
	}
	t.Logf("message faults injected: %v", kinds)
	for _, k := range []exec.FaultKind{exec.FaultDrop, exec.FaultDup, exec.FaultDelay, exec.FaultCorrupt} {
		if kinds[k] == 0 {
			t.Errorf("no case of the seed range injects %s", k)
		}
	}
}
