package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/project"
	"repro/internal/trace"
	"repro/internal/wire"
)

// statsExec returns the exec section of the server's /stats body as
// the bytes it sent.
func statsExec(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := json.Compact(&b, doc["exec"]); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// pairProject is the diamond on two processors, one per daemon in fleet
// mode. ETF places a and b on processor 0 and c and d on processor 1,
// so its two messages, a->c:u and b->d:v, cross between them.
func pairProject(t *testing.T) *project.Project {
	t.Helper()
	p := testProject(t, 10, 1, 3)
	topo, err := machine.ParseTopology("hypercube:1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine, err = machine.New("hypercube:1", topo, p.Machine.Params); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestServeStatsArePinned pins the exec section of /stats, keys and
// values, after a known sequence of runs: two plain runs through POST
// /run, then one with a dropped (and so resent) and a duplicated
// message and, in process, one whose crash is recovered. The faulted
// runs are counted into the server's own accumulator, since no request
// carries a fault plan. The in-process server runs in virtual time; the
// fleet-backed one runs on the wall clock over two daemons, and neither
// count depends on timing: the crash is of processor 0 before its first
// task, so nothing ran or was sent when the recovery starts.
func TestServeStatsArePinned(t *testing.T) {
	p := pairProject(t)
	faulted := func(s *Server, spec string) *exec.Runner {
		t.Helper()
		plan, err := exec.ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		return &exec.Runner{Inputs: p.Inputs, Faults: plan, Retry: true, Stats: s.stats, VirtualTime: s.opts.Virtual}
	}
	for _, tc := range []struct {
		name string
		opts func() Options
		run  func(s *Server, entry cacheEntry)
		want string
	}{{
		name: "in-process",
		opts: func() Options { return Options{DefaultAlg: "etf", Virtual: true} },
		run: func(s *Server, entry cacheEntry) {
			for _, spec := range []string{"drop:a->c:u,dup:b->d:v", "crash:0@0"} {
				if _, err := faulted(s, spec).Run(entry.sc, entry.flat); err != nil {
					t.Fatalf("%s: %v", spec, err)
				}
			}
		},
		want: `{"TasksRun":16,"MsgsSent":6,"MsgsRecv":6,"Retries":1,"FaultsInjected":3,"Recoveries":1,"RemoteSends":0,"RemoteFlushes":0}`,
	}, {
		name: "fleet",
		opts: func() Options { return Options{DefaultAlg: "etf", Fleet: startFleet(t, "stats-pinned")} },
		run: func(s *Server, entry cacheEntry) {
			if _, err := s.opts.Fleet.Run(context.Background(), faulted(s, "drop:a->c:u,dup:b->d:v"), entry.sc, entry.flat); err != nil {
				t.Fatal(err)
			}
		},
		want: `{"TasksRun":12,"MsgsSent":6,"MsgsRecv":6,"Retries":1,"FaultsInjected":2,"Recoveries":0,"RemoteSends":7,"RemoteFlushes":6}`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.opts())
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for i := 0; i < 2; i++ {
				if rr, resp := postRun(t, ts.URL, p, "", nil); rr == nil {
					t.Fatalf("run %d rejected: %d", i, resp.StatusCode)
				}
			}
			entry, _, err := s.compile(p, "etf")
			if err != nil {
				t.Fatal(err)
			}
			tc.run(s, entry)
			if got := statsExec(t, ts.URL); got != tc.want {
				t.Errorf("/stats exec =\n  %s\nwant\n  %s", got, tc.want)
			}
		})
	}
}

// TestServeFleetStatsCountADrainedMember: a member drained mid-run hands
// its trace events over with its checkpoint, and /stats counts what the
// run's log holds: exec.TasksRun equals the run's task ends. Daemon 0
// runs a and b and is drained while a->c:u, held back 1.2 s on the wall
// clock, keeps the run open; c and d then run on daemon 1.
func TestServeFleetStatsCountADrainedMember(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", Fleet: startFleet(t, "stats-drain")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	p := pairProject(t)
	entry, _, err := s.compile(p, "etf")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := exec.ParseFaults("delay:a->c:u@1200000")
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan error, 1)
	go func() {
		time.Sleep(300 * time.Millisecond)
		drained <- wire.Drain(context.Background(), s.opts.Fleet.Transport, "stats-drain", 0, "stats-drain-worker-0")
	}()
	res, err := s.opts.Fleet.Run(context.Background(), &exec.Runner{Inputs: p.Inputs, Faults: plan, Stats: s.stats}, entry.sc, entry.flat)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	var ends, departed int64
	for _, e := range res.Trace.Events {
		switch e.Kind {
		case trace.TaskEnd:
			ends++
		case trace.WorkerDrained:
			departed++
		}
	}
	if departed != 1 {
		t.Fatalf("trace records %d drains, want 1", departed)
	}
	if got := scrapeStats(t, ts.URL).Exec.TasksRun; got != ends {
		t.Errorf("/stats exec.TasksRun = %d, the run's trace has %d task ends", got, ends)
	}
}

// TestServeFailedRunAddsNothing pins what a run that ends in an error
// adds to /stats: nothing. A run is counted from the log its lifecycle
// makes when every member has returned, and a failed run makes none, so
// the tasks it ran before failing (a, b and c here; d's index is out of
// range) are not counted, in process or on a fleet. It is counted as a
// failed run instead.
func TestServeFailedRunAddsNothing(t *testing.T) {
	for _, opts := range []func() Options{
		func() Options { return Options{DefaultAlg: "etf", Virtual: true} },
		func() Options { return Options{DefaultAlg: "etf", Fleet: startFleet(t, "stats-failed")} },
	} {
		s := New(opts())
		ts := httptest.NewServer(s.Handler())
		p := pairProject(t)
		p.Design.Node("d").Routine = "z = zeros(2)\nout = z[v + w]"
		if rr, resp := postRun(t, ts.URL, p, "", nil); rr != nil || resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("a run whose task fails was answered %d", resp.StatusCode)
		}
		st := scrapeStats(t, ts.URL)
		if st.Runs.Failed != 1 || st.Exec != (exec.StatsSnapshot{}) {
			t.Errorf("fleet=%v: after one failed run, runs.failed = %d and exec = %+v; want 1 and nothing",
				s.opts.Fleet != nil, st.Runs.Failed, st.Exec)
		}
		ts.Close()
	}
}
