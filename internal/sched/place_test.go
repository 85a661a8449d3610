package sched

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/machine"
)

// layeredDesign builds the 501-task layered calculator graph the runner
// benchmarks use (layers*width tasks plus a sink), minus the routines —
// placement only reads work and word counts.
func layeredDesign(t *testing.T, layers, width int) *graph.Graph {
	t.Helper()
	g := graph.New("layered-calc")
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
			g.MustAddTask(id, "", int64(10+(l*7+i*3)%20))
			if l == 0 {
				continue
			}
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, i)), id, fmt.Sprintf("v%d_%d", l-1, i), 1)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, (i+1)%width)), id, fmt.Sprintf("w%d_%d", l-1, i), 1)
		}
	}
	g.MustAddTask("snk", "", 20)
	for i := 0; i < width; i++ {
		g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", layers-1, i)), "snk", fmt.Sprintf("s%d", i), 1)
	}
	return g
}

// contiguousPeerOf reproduces the historical contiguous-block partition
// as a peerOf vector: the baseline Place must beat (or match).
func contiguousPeerOf(numPE, workers int) []int {
	if workers > numPE {
		workers = numPE
	}
	peerOf := make([]int, numPE)
	base, rem := numPE/workers, numPE%workers
	pe := 0
	for w := 0; w < workers; w++ {
		n := base
		if w < rem {
			n++
		}
		for k := 0; k < n; k++ {
			peerOf[pe] = w
			pe++
		}
	}
	return peerOf
}

// TestPlaceReducesCrossWorkerWords pins the acceptance figure: on the
// 501-task layered design scheduled by ETF onto an 8-PE hypercube,
// traffic-aware placement moves strictly fewer words across worker
// boundaries than the contiguous-block partition.
func TestPlaceReducesCrossWorkerWords(t *testing.T) {
	g := layeredDesign(t, 20, 25) // 501 tasks
	m := mk(t, "hypercube:3", machine.DefaultParams())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4} {
		peerOf := Place(s, workers)
		placed := CrossWorkerWords(s, peerOf)
		contig := CrossWorkerWords(s, contiguousPeerOf(m.NumPE(), workers))
		t.Logf("workers=%d: contiguous %d words, placed %d words", workers, contig, placed)
		if placed >= contig {
			t.Errorf("workers=%d: placement crosses %d words, contiguous blocks cross %d — no reduction", workers, placed, contig)
		}
	}
}

// TestPlaceQuotas verifies Place never unbalances the fleet: the
// per-worker processor counts sum to the machine, differ by at most
// one, and the extras go to the lowest workers.
func TestPlaceQuotas(t *testing.T) {
	g := layeredDesign(t, 6, 7)
	m := mk(t, "hypercube:3", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	numPE := m.NumPE()
	for _, workers := range []int{1, 2, 3, 5, 8, 11} {
		peerOf := Place(s, workers)
		if len(peerOf) != numPE {
			t.Fatalf("workers=%d: peerOf has %d entries for %d PEs", workers, len(peerOf), numPE)
		}
		used := workers
		if used > numPE {
			used = numPE
		}
		got := make([]int, used)
		for pe, w := range peerOf {
			if w < 0 || w >= used {
				t.Fatalf("workers=%d: PE %d placed on worker %d of %d", workers, pe, w, used)
			}
			got[w]++
		}
		for w, n := range got {
			want := numPE / used
			if w < numPE%used {
				want++
			}
			if n != want {
				t.Errorf("workers=%d: worker %d hosts %d PEs, want %d (counts %v)", workers, w, n, want, got)
			}
		}
	}
}

// TestPlaceDeterministic pins reproducibility for the conformance
// harness: identical schedules place identically, run to run.
func TestPlaceDeterministic(t *testing.T) {
	g := layeredDesign(t, 20, 25)
	m := mk(t, "hypercube:3", machine.DefaultParams())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	first := Place(s, 3)
	for i := 0; i < 3; i++ {
		s2, err := ETF{}.Schedule(g, m)
		if err != nil {
			t.Fatal(err)
		}
		if again := Place(s2, 3); !reflect.DeepEqual(again, first) {
			t.Fatalf("placement differs between runs: %v vs %v", again, first)
		}
	}
}

// TestReplanExpand exercises the expand direction: an era ran on two
// live processors of a four-processor machine, then the other two
// revive (a worker joined) and the replan migrates queued work onto
// them.
func TestReplanExpand(t *testing.T) {
	g := graph.GE(4, 5, 10, 3)
	m := mk(t, "full:4", cheapComm())
	s, err := ETF{}.Schedule(g, m)
	if err != nil {
		t.Fatal(err)
	}
	// Results finished by the cutoff survive on PEs 0 and 1 (the PEs
	// that were live before the join).
	done := map[graph.NodeID]int{}
	for _, sl := range s.Slots {
		if sl.Dup || sl.Finish > s.Makespan()/3 {
			continue
		}
		pe := sl.PE
		if pe > 1 {
			pe = 0
		}
		done[sl.Task] = pe
	}
	st := ReplanState{Live: []bool{true, true, true, true}, Done: done}
	plan, err := Replan(s, st)
	if err != nil {
		t.Fatal(err)
	}
	checkPlan(t, s, st, plan)
	if len(plan.Slots) == 0 {
		t.Fatal("expand replan planned nothing; cutoff left no queued work")
	}
	revived := false
	for _, sl := range plan.Slots {
		if sl.PE > 1 {
			revived = true
			break
		}
	}
	if !revived {
		t.Errorf("no queued task migrated onto the revived PEs; plan %v", plan.Slots)
	}
}
