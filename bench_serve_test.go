package banger_test

// Throughput of the `banger serve` control plane: full HTTP round
// trips against the 501-task layered design on a 128-PE ring — the
// machine family where MH's link-contention pass is most expensive,
// i.e. the regime the schedule cache exists for. Two request modes:
// `schedule` (the paper's interactive predict step as a service —
// decode, admission, schedule or cache hit, prediction response) and
// `run` (the same plus virtual-time execution). Cold disables the
// cache so every submission pays the MH pass; warm primes the cache.
// The schedule-mode cold/warm gap is what the cache is worth.
// Baseline: BENCH_PR9.json.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/serve"
	"repro/internal/wire"
)

// serveProjectBody marshals the 501-task layered calculator as a
// project submission, as `banger batch` would post it.
func serveProjectBody(b *testing.B) []byte {
	b.Helper()
	topo, err := machine.Ring(128)
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := &project.Project{
		Name: "layered-calc", Design: layeredCalcGraph(20, 25), Machine: m,
		Inputs: pits.Env{"x": pits.Num(3)},
	}
	body, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchServeThroughput drives b.N submissions through conc concurrent
// clients and reports runs/sec plus p50/p99 request latency.
func benchServeThroughput(b *testing.B, conc int, mode string, warm bool) {
	cacheCap := -1 // cold: every request schedules from scratch
	if warm {
		cacheCap = 16
	}
	s := serve.New(serve.Options{
		DefaultAlg: "mh", MaxConcurrent: conc,
		QueueDepth: 4 * conc, TenantCap: -1,
		CacheCap: cacheCap, Virtual: true,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := srv.Client()
	body := serveProjectBody(b)
	url := srv.URL + "/run"
	if mode == "schedule" {
		url += "?mode=schedule"
	}
	post := func() time.Duration {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			b.Errorf("serve said %s: %s", resp.Status, msg)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		return time.Since(t0)
	}
	// Warmup outside the timer: the first requests prime the schedule
	// cache (warm mode) and fault in the scheduler's arena pools and
	// the runtime heap (both modes), so the measurement is the
	// steady-state service regime, not first-touch allocation.
	for i := 0; i < 3; i++ {
		post()
	}

	lats := make([]time.Duration, b.N)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(b.N) {
					return
				}
				lats[i] = post()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	b.ReportMetric(float64(b.N)/wall.Seconds(), "runs/s")
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
}

// serveFleetProjectBody marshals the fleet-mode workload: a 65-task
// layered calculator on a 4-PE hypercube. Fleet runs execute
// wall-clock across live worker daemons, so the workload is sized for
// distributed execution round trips, not for the 128-PE scheduling
// stressor the local modes use.
func serveFleetProjectBody(b *testing.B) []byte {
	b.Helper()
	topo, err := machine.ParseTopology("hypercube:2")
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(topo.Name, topo, machine.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	p := &project.Project{
		Name: "layered-calc-fleet", Design: layeredCalcGraph(8, 8), Machine: m,
		Inputs: pits.Env{"x": pits.Num(3)},
	}
	body, err := json.Marshal(p)
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchServeFleet drives b.N run-mode submissions through conc
// concurrent clients against a control plane backed by a live
// in-process worker fleet of the given size. maxRuns caps concurrent
// fleet runs (0 = unlimited); maxRuns=1 reproduces the old one-run
// lease, the serialized baseline the multiplexing axis is measured
// against.
func benchServeFleet(b *testing.B, workers, conc, maxRuns int) {
	tr := wire.Inproc()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wwg sync.WaitGroup
	seed := make([]string, workers)
	for i := 0; i < workers; i++ {
		addr := fmt.Sprintf("bench-fleet-w%d", i)
		ready := make(chan struct{})
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			wire.ServeWorker(ctx, tr, addr, wire.WorkerOptions{}, func(string) { close(ready) })
		}()
		<-ready
		seed[i] = addr
	}
	defer wwg.Wait()
	defer cancel()

	fleet := &wire.Fleet{
		Transport: tr, Control: "bench-fleet-ctl", Seed: seed,
		MaxRuns:        maxRuns,
		HeartbeatEvery: 100 * time.Millisecond,
		PeerTimeout:    time.Minute,
	}
	if err := fleet.Start(); err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()

	s := serve.New(serve.Options{
		DefaultAlg: "etf", MaxConcurrent: conc,
		QueueDepth: 4 * conc, TenantCap: -1,
		CacheCap: 16, Fleet: fleet,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	client := srv.Client()
	body := serveFleetProjectBody(b)
	url := srv.URL + "/run"
	post := func() time.Duration {
		t0 := time.Now()
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Error(err)
			return 0
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			b.Errorf("serve said %s: %s", resp.Status, msg)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		return time.Since(t0)
	}
	for i := 0; i < 3; i++ {
		post()
	}

	lats := make([]time.Duration, b.N)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(b.N) {
					return
				}
				lats[i] = post()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	b.StopTimer()

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(lats)-1))
		return float64(lats[i]) / float64(time.Millisecond)
	}
	b.ReportMetric(float64(b.N)/wall.Seconds(), "runs/s")
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
}

// BenchmarkServeThroughput sweeps the serving layer over concurrency
// levels 1/4/16 and both request modes, cold (cache disabled) against
// warm (cache primed); plus the fleet-backed run mode over {1,4,16}
// concurrent runs × {1,2,4} worker daemons (runs multiplex onto the
// same daemons keyed by run ID), with fleet-serial — the old one-run
// lease, MaxRuns=1 — as the serialized comparison point.
func BenchmarkServeThroughput(b *testing.B) {
	for _, mode := range []string{"schedule", "run"} {
		for _, temp := range []string{"cold", "warm"} {
			for _, conc := range []int{1, 4, 16} {
				b.Run(fmt.Sprintf("%s/%s/c%d", mode, temp, conc), func(b *testing.B) {
					benchServeThroughput(b, conc, mode, temp == "warm")
				})
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		for _, runs := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("fleet/w%d/r%d", workers, runs), func(b *testing.B) {
				benchServeFleet(b, workers, runs, 0)
			})
		}
	}
	b.Run("fleet-serial/w2/r4", func(b *testing.B) {
		benchServeFleet(b, 2, 4, 1)
	})
}
