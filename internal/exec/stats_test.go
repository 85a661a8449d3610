package exec

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestStatsConcurrentIncrements adds one-of-everything from many
// goroutines while others read. Under -race this pins that Add and
// Snapshot share the lock; a lost update fails the totals on any build.
func TestStatsConcurrentIncrements(t *testing.T) {
	const goroutines = 16
	const perG = 1000
	one := StatsSnapshot{TasksRun: 1, MsgsSent: 1, MsgsRecv: 1, Retries: 1,
		FaultsInjected: 1, Recoveries: 1, RemoteSends: 1, RemoteFlushes: 1}
	var s Stats
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				s.Add(one)
				_ = s.Snapshot() // concurrent reads must be safe too
			}
		}()
	}
	wg.Wait()
	const n = goroutines * perG
	want := StatsSnapshot{TasksRun: n, MsgsSent: n, MsgsRecv: n, Retries: n,
		FaultsInjected: n, Recoveries: n, RemoteSends: n, RemoteFlushes: n}
	if got := s.Snapshot(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// TestRunStatsMatchTrace runs a real schedule many times at once into
// one shared Stats, as a server does, and checks that every run was
// added exactly once: the totals are the sum of each run's own trace
// fold (task ends, duplicates too; sends, receives, retries and faults),
// and a crashed run adds the one recovery its lifecycle committed.
// Under -race it also pins that concurrent Adds and Snapshots are safe.
func TestRunStatsMatchTrace(t *testing.T) {
	flat := diamondDesign(t)
	inputs := pits.Env{"x0": pits.Num(3)}
	m := testMachine(t, "hypercube:2", params())
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	first, last := sc.Msgs[0], sc.Msgs[len(sc.Msgs)-1]
	plans := []string{"", "crash:1@0", fmt.Sprintf("drop:%s->%s:%s,dup:%s->%s:%s",
		first.From, first.To, first.Var, last.From, last.To, last.Var)}
	const rounds = 8
	stats := &Stats{}
	var (
		mu   sync.Mutex
		want StatsSnapshot
		wg   sync.WaitGroup
	)
	for i := 0; i < rounds*len(plans); i++ {
		spec := plans[i%len(plans)]
		r := &Runner{Inputs: inputs, VirtualTime: i%2 == 0, Retry: true, Stats: stats}
		if spec != "" {
			if r.Faults, err = ParseFaults(spec); err != nil {
				t.Fatal(err)
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Run(sc, flat)
			_ = stats.Snapshot() // reads race the other runs' Adds
			if err != nil {
				t.Errorf("%q: %v", spec, err)
				return
			}
			c := trace.Count(res.Trace.Events)
			mu.Lock()
			defer mu.Unlock()
			want.TasksRun += int64(c.TasksRun + c.DupsRun)
			want.MsgsSent += int64(c.Msgs)
			want.MsgsRecv += int64(c.MsgsRecv)
			want.Retries += int64(c.Retries)
			want.FaultsInjected += int64(c.Faults)
			if spec == "crash:1@0" {
				want.Recoveries++
			}
		}()
	}
	wg.Wait()
	got := stats.Snapshot()
	if got != want {
		t.Errorf("shared Stats = %+v\nsum of the runs' folds = %+v", got, want)
	}
	if got.TasksRun == 0 || got.MsgsSent == 0 || got.Retries == 0 || got.Recoveries != rounds {
		t.Errorf("counters never moved on real runs: %+v", got)
	}
	if got.RemoteSends != 0 || got.RemoteFlushes != 0 {
		t.Errorf("in-process runs counted %d remote sends and %d flushes", got.RemoteSends, got.RemoteFlushes)
	}
}
