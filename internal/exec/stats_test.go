package exec

import (
	"sync"
	"testing"

	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestStatsConcurrentIncrements hammers every counter from many
// goroutines. Under -race this pins the atomicity of the Stats type:
// replacing any atomic.Int64 with a plain int64 fails the race build,
// and lost updates fail the totals below on any build.
func TestStatsConcurrentIncrements(t *testing.T) {
	const goroutines = 16
	const perG = 1000
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				s.TasksRun.Add(1)
				s.MsgsSent.Add(1)
				s.MsgsRecv.Add(1)
				s.Retries.Add(1)
				s.FaultsInjected.Add(1)
				s.Recoveries.Add(1)
				_ = s.Snapshot() // concurrent reads must be safe too
			}
		}()
	}
	wg.Wait()
	snap := s.Snapshot()
	want := int64(goroutines * perG)
	for name, got := range map[string]int64{
		"TasksRun": snap.TasksRun, "MsgsSent": snap.MsgsSent, "MsgsRecv": snap.MsgsRecv,
		"Retries": snap.Retries, "FaultsInjected": snap.FaultsInjected, "Recoveries": snap.Recoveries,
	} {
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestRunStatsMatchTrace runs a real schedule and checks the runner's
// counters agree with what the trace records: counters and events are
// incremented at the same sites, so a drift means one of them lies.
// The crashed variant adds the one counter no session can keep — a
// recovery is the lifecycle's doing, counted once per completed
// crash barrier.
func TestRunStatsMatchTrace(t *testing.T) {
	flat := diamondDesign(t)
	inputs := pits.Env{"x0": pits.Num(3)}
	m := testMachine(t, "hypercube:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		faults           string
		faulted, recover int64
	}{{"", 0, 0}, {"crash:1@0", 1, 1}} {
		r := &Runner{Inputs: inputs, VirtualTime: true, Stats: &Stats{}}
		if tc.faults != "" {
			if r.Faults, err = ParseFaults(tc.faults); err != nil {
				t.Fatal(err)
			}
		}
		res, err := r.Run(sc, flat)
		if err != nil {
			t.Fatal(err)
		}
		snap := r.Stats.Snapshot()
		counts := map[trace.Kind]int64{}
		for _, e := range res.Trace.Events {
			counts[e.Kind]++
		}
		if snap.TasksRun != counts[trace.TaskStart] {
			t.Errorf("%q: TasksRun = %d, trace has %d task starts", tc.faults, snap.TasksRun, counts[trace.TaskStart])
		}
		if snap.MsgsSent != counts[trace.MsgSend] {
			t.Errorf("%q: MsgsSent = %d, trace has %d sends", tc.faults, snap.MsgsSent, counts[trace.MsgSend])
		}
		if snap.MsgsRecv != counts[trace.MsgRecv] {
			t.Errorf("%q: MsgsRecv = %d, trace has %d receives", tc.faults, snap.MsgsRecv, counts[trace.MsgRecv])
		}
		if snap.FaultsInjected != tc.faulted || snap.Recoveries != tc.recover {
			t.Errorf("%q: faults=%d recoveries=%d, want %d and %d", tc.faults,
				snap.FaultsInjected, snap.Recoveries, tc.faulted, tc.recover)
		}
		if snap.RemoteSends != 0 || snap.RemoteFlushes != 0 {
			t.Errorf("%q: an in-process run counted %d remote sends and %d flushes", tc.faults, snap.RemoteSends, snap.RemoteFlushes)
		}
		if snap.TasksRun == 0 || snap.MsgsSent == 0 {
			t.Errorf("%q: counters never moved on a real run", tc.faults)
		}
	}
}
