package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// config is what the command line fixes for one run.
type config struct {
	seed    int64
	seconds float64
	smoke   bool
	outDir  string
}

// warmups is how many requests go out before the first timed one: the
// first primes the schedule cache (on the workloads that hit it), and
// all of them fault in the scheduler's arenas and the runtime heap.
const warmups = 3

// fleetWorkers is the number of worker daemons behind run-fleet.
const fleetWorkers = 2

// stack is everything one workload needs up and primed: the real
// serve.Server behind a loopback listener, the worker daemons and the
// fleet when the mode needs them, the generated inputs and a client.
type stack struct {
	w      workload
	in     *inputs
	srv    *serve.Server
	url    string
	client *http.Client
	fleet  *wire.Fleet
	// workers holds the daemons' bound addresses (run-fleet only).
	workers []string
	// next numbers the requests; request i posts in.bodies[i%len].
	next atomic.Int64
	// primed is the reply to the first warm-up request, the miss that
	// primed the cache: every later hit must predict the same.
	primed serve.RunResponse
	stop   []func()
}

// reply is one completed request as the client saw it.
type reply struct {
	index   int64 // request number; selects the body
	start   time.Time
	latency time.Duration
	status  int // 0 when the round trip itself failed
	body    []byte
	err     error
}

// setup brings a workload's stack up and leaves it ready for the first
// timed request: inputs generated, server (and daemons) listening,
// warm-up requests answered, cache primed.
func setup(w workload, cfg config) (st *stack, err error) {
	if cfg.smoke {
		w = w.smoke()
	}
	st = &stack{w: w}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.in, err = generate(cfg.seed, w.topo, w.variants); err != nil {
		return st, err
	}

	// The shipped defaults (CacheCap 128, QueueDepth 64, Workers 0,
	// MaxConcurrent GOMAXPROCS) plus only what the mode requires. The
	// watchdog floor is raised as bench_serve_test.go does, so a noisy
	// neighbour cannot turn into a spurious failure.
	opts := serve.Options{DefaultAlg: w.alg, TenantCap: -1, WatchdogMin: 5 * time.Minute, Virtual: w.virtual}
	if w.fleet {
		if err = st.startFleet(); err != nil {
			return st, err
		}
		opts.Fleet = st.fleet
	}
	st.srv = serve.New(opts)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return st, err
	}
	hs := &http.Server{Handler: st.srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	st.stop = append(st.stop, func() {
		hs.Close()
		<-served
	})
	st.url = "http://" + ln.Addr().String() + "/run"
	if w.mode == "schedule" {
		st.url += "?mode=schedule"
	}
	tr := &http.Transport{MaxIdleConnsPerHost: w.clients}
	st.client = &http.Client{Transport: tr}
	st.stop = append(st.stop, tr.CloseIdleConnections)

	// Warm up from the tail of the body list: by the time a cycling
	// predict-miss stream reaches those variants again the LRU has long
	// evicted them, so they still miss.
	for i := 0; i < warmups; i++ {
		r := st.post(int64(len(st.in.bodies) - warmups + i))
		if r.err != nil || r.status != http.StatusOK {
			return st, fmt.Errorf("warm-up request %d: status %d: %v %s", i, r.status, r.err, r.body)
		}
		if i == 0 {
			if err = json.Unmarshal(r.body, &st.primed); err != nil {
				return st, fmt.Errorf("warm-up reply: %w", err)
			}
		}
	}
	return st, nil
}

// startFleet starts the worker daemons on loopback TCP and a fleet
// seeded with them, mesh data plane on (the CLI default).
func (st *stack) startFleet() error {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	st.stop = append(st.stop, func() {
		cancel()
		wg.Wait()
	})
	for i := 0; i < fleetWorkers; i++ {
		ready := make(chan string, 1)
		failed := make(chan error, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := wire.ServeWorker(ctx, wire.TCP(), "127.0.0.1:0", wire.WorkerOptions{},
				func(bound string) { ready <- bound }); err != nil && ctx.Err() == nil {
				failed <- err
			}
		}()
		select {
		case addr := <-ready:
			st.workers = append(st.workers, addr)
		case err := <-failed:
			return fmt.Errorf("worker daemon %d: %w", i, err)
		}
	}
	st.fleet = &wire.Fleet{
		Transport: wire.TCP(), Control: "127.0.0.1:0", Seed: st.workers, Mesh: true,
		HeartbeatEvery: 250 * time.Millisecond,
		// Like the watchdog floor: a stalled heartbeat on a busy host
		// must slow a run, not fail it.
		PeerTimeout: time.Minute,
	}
	if err := st.fleet.Start(); err != nil {
		return err
	}
	// Stops run in reverse: the fleet closes before its daemons do.
	st.stop = append(st.stop, st.fleet.Close)
	return nil
}

// close tears the stack down, newest part first, and waits for each.
func (st *stack) close() {
	for i := len(st.stop) - 1; i >= 0; i-- {
		st.stop[i]()
	}
	st.stop = nil
}

// post sends request number i and waits for the whole reply.
func (st *stack) post(i int64) reply {
	body := st.in.bodies[i%int64(len(st.in.bodies))]
	t0 := time.Now()
	r := reply{index: i, start: t0}
	resp, err := st.client.Post(st.url, "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.latency = err, time.Since(t0)
		return r
	}
	r.body, r.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.latency = time.Since(t0)
	r.status = resp.StatusCode
	return r
}

// drive runs the closed loop: each of the workload's clients posts,
// waits for the reply, and posts again. It stops when more() says so;
// a request already sent is always awaited and counted.
func (st *stack) drive(more func(sent int64) bool) []reply {
	var mu sync.Mutex
	var replies []reply
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < st.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []reply
			for more(sent.Add(1) - 1) {
				mine = append(mine, st.post(st.next.Add(1)-1))
			}
			mu.Lock()
			replies = append(replies, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return replies
}

// The measured window is cut into slices equal parts, and the
// end-to-end rates and percentiles are taken from the bestSlices of
// them with the highest throughput, pooled. On a shared host
// interference comes in bursts of seconds and only ever slows the
// program down, so the fastest slices are the ones that repeat: a
// burst changes which slices are chosen, not what they read.
const (
	slices     = 20
	bestSlices = 6
)

// mark is the process's resource counters at one slice boundary.
type mark struct {
	at    time.Time
	cpu   time.Duration // user+sys so far
	alloc uint64        // heap bytes allocated so far
}

func takeMark() mark {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return mark{at: time.Now(), cpu: cpuTime(), alloc: sample[0].Value.Uint64()}
}

// window is what the untraced measured window saw from outside the
// program: the replies, the process's own resource counters at every
// slice boundary, and its resident set sampled throughout.
type window struct {
	replies  []reply
	marks    []mark    // slices+1 of them
	rss      []float64 // resident set in MB, sampled every rssEvery
	gcCycles uint32
	gcPause  time.Duration
}

// rssEvery is the resident-set sampling period.
const rssEvery = 50 * time.Millisecond

// measure drives the closed loop for d, marking the resource counters
// at each slice boundary and sampling the resident set, all from one
// goroutine that sleeps between readings.
func (st *stack) measure(d time.Duration) window {
	var m0, m1 runtime.MemStats
	runtime.GC() // start every window from a collected heap
	runtime.ReadMemStats(&m0)
	win := window{marks: []mark{takeMark()}}
	start := win.marks[0].at
	deadline := start.Add(d)

	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case now := <-tick.C:
				if rss, err := rssMB("VmRSS"); err == nil {
					win.rss = append(win.rss, rss)
				}
				if next := start.Add(d * time.Duration(len(win.marks)) / slices); len(win.marks) < slices && !now.Before(next) {
					win.marks = append(win.marks, takeMark())
				}
			case <-stop:
				return
			}
		}
	}()
	win.replies = st.drive(func(int64) bool { return time.Now().Before(deadline) })
	close(stop)
	<-sampled
	win.marks = append(win.marks, takeMark())
	runtime.ReadMemStats(&m1)
	win.gcCycles = m1.NumGC - m0.NumGC
	win.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return win
}

// sliceStats is one slice of the window as a client saw it.
type sliceStats struct {
	latencyMS []float64 // of the requests that completed in the slice
	good      int       // of those, the ones the oracle accepted
	seconds   float64
	cpu       time.Duration
	alloc     uint64
}

// slice sorts the replies into slices by completion time. bad[i]
// marks reply i as failed.
func (win *window) slice(bad map[int64]bool) []sliceStats {
	out := make([]sliceStats, len(win.marks)-1)
	for i := range out {
		lo, hi := win.marks[i], win.marks[i+1]
		out[i] = sliceStats{seconds: hi.at.Sub(lo.at).Seconds(), cpu: hi.cpu - lo.cpu, alloc: hi.alloc - lo.alloc}
	}
	for _, r := range win.replies {
		done := r.start.Add(r.latency)
		i := sort.Search(len(out)-1, func(i int) bool { return done.Before(win.marks[i+1].at) })
		out[i].latencyMS = append(out[i].latencyMS, float64(r.latency)/float64(time.Millisecond))
		if !bad[r.index] {
			out[i].good++
		}
	}
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads one resident-set figure of this process from
// /proc/self/status: "VmRSS" is the current size, "VmHWM" its
// high-water mark.
func rssMB(field string) (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}
