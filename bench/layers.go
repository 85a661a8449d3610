package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gantt"
	"repro/internal/graph"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wire"
)

// perLayer lists the per-layer metrics in report order. Each is timed
// from outside, around calls into the layer's public functions: spans
// inside the program are a later change. A layer that is not on a
// workload's request path is timed there alone, on the design's 8-PE
// reference schedule, so every layer has a figure on every workload.
var perLayer = []metricDef{
	{name: "project.decode_ms", unit: "ms", better: "lower"},
	{name: "project.body_kb", unit: "KB", better: "lower", exact: true},
	{name: "graph.flatten_ms", unit: "ms", better: "lower"},
	{name: "graph.tasks", unit: "count", better: "lower", exact: true},
	{name: "graph.arcs", unit: "count", better: "lower", exact: true},
	{name: "machine.precompute_ms", unit: "ms", better: "lower"},
	{name: "sched.fingerprint_ms", unit: "ms", better: "lower"},
	{name: "sched.schedule_ms", unit: "ms", better: "lower"},
	{name: "sched.validate_ms", unit: "ms", better: "lower"},
	{name: "sched.makespan_us", unit: "us", better: "lower", exact: true},
	{name: "sched.msgs", unit: "count", better: "lower", exact: true},
	{name: "sched.replan_ms", unit: "ms", better: "lower"},
	{name: "pits.rehearse_ms", unit: "ms", better: "lower"},
	{name: "exec.run_ms", unit: "ms", better: "lower"},
	{name: "exec.alloc_mb_per_run", unit: "MB", better: "lower"},
	{name: "exec.alloc_formula_mb", unit: "MB", better: "lower", exact: true},
	{name: "exec.goroutines_peak", unit: "count", better: "lower"},
	{name: "exec.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "exec.tasks_run", unit: "count", better: "lower", exact: true},
	{name: "exec.msgs_sent", unit: "count", better: "lower", exact: true},
	{name: "exec.retries", unit: "count", better: "lower"},
	{name: "exec.simulate_ms", unit: "ms", better: "lower"},
	{name: "gantt.chart_ms", unit: "ms", better: "lower"},
	{name: "trace.summarize_ms", unit: "ms", better: "lower"},
	{name: "trace.events", unit: "count", better: "lower"},
	{name: "wire.encode_schedule_ms", unit: "ms", better: "lower"},
	{name: "wire.decode_schedule_ms", unit: "ms", better: "lower"},
	{name: "wire.schedule_blob_kb", unit: "KB", better: "lower", exact: true},
	{name: "wire.coord_run_ms", unit: "ms", better: "lower"},
	{name: "wire.fleet_run_ms", unit: "ms", better: "lower"},
	{name: "wire.dist_overhead_ms", unit: "ms", better: "lower"},
	{name: "wire.fleet_overhead_ms", unit: "ms", better: "lower"},
	{name: "wire.bytes_per_run", unit: "KB", better: "lower"},
	{name: "serve.request_ms", unit: "ms", better: "lower"},
	{name: "serve.respond_ms", unit: "ms", better: "lower"},
	{name: "serve.overhead_ms", unit: "ms", better: "lower"},
	{name: "serve.accounted_pct", unit: "%", better: "higher"},
	{name: "serve.response_kb", unit: "KB", better: "lower"},
	{name: "serve.cache_hit_ratio", unit: "ratio", better: "higher", exact: true},
	{name: "serve.rejected", unit: "count", better: "lower", exact: true},
	{name: "serve.goroutines_idle", unit: "count", better: "lower"},
	{name: "serve.goroutines_growth", unit: "count", better: "lower"},
	{name: "runtime.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "runtime.gc_cycles_per_req", unit: "count", better: "lower"},
	{name: "runtime.gc_pause_ms_per_req", unit: "ms", better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower"},
}

// xmsgBytes is the size of one inbox slot (exec's unexported xmsg) on
// a 64-bit host: a three-string key, an interface value, five words
// and a channel. It prices the allocation formula in README.md.
const xmsgBytes = 112

// probeReps is how many times a stand-alone layer call is repeated;
// the metric is the median.
const probeReps = 5

// layerPass is the traced pass over one primed stack. It replays the
// workload's requests over HTTP, then through the same public calls
// serve.handleRun and compile make, in the same order, with a span
// around each; then it times the layers no request reaches.
type layerPass struct {
	st  *stack
	rec *recorder
	orc *oracle
	// flat and sc are the pair a cache hit hands a request: the design
	// and schedule of the primed weights.
	flat *graph.Flat
	sc   *sched.Schedule
	// ref is the same design's 8-PE ETF schedule (hypercube:3): what
	// replan starts from, and what layers off a workload's path run.
	ref *sched.Schedule

	mu       sync.Mutex // guards vals and failures during concurrent replays
	vals     map[string]float64
	failures []error
}

func (lp *layerPass) fail(err error) {
	lp.mu.Lock()
	lp.failures = append(lp.failures, err)
	lp.mu.Unlock()
}

func (lp *layerPass) set(name string, v float64) {
	lp.mu.Lock()
	lp.vals[name] = v
	lp.mu.Unlock()
}

// medianOf sets metric name to the median duration of the spans
// called spanName and returns it.
func (lp *layerPass) medianOf(name, spanName string) float64 {
	v := median(lp.rec.ms(spanName))
	lp.vals[name] = v
	return v
}

// reps calls f probeReps times, alone in the process; f wraps the
// calls it wants timed in span.
func (lp *layerPass) reps(f func(span func(name string, fn func())) error) {
	span := func(name string, fn func()) { lp.rec.timed(name, -1, -1, fn) }
	for i := 0; i < probeReps; i++ {
		if err := f(span); err != nil {
			lp.fail(err)
			return
		}
	}
}

// each calls f(k) for every k below n from the given number of
// goroutines and waits for them.
func each(clients int, n int64, f func(k int64)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := next.Add(1) - 1; k < n; k = next.Add(1) - 1 {
				f(k)
			}
		}()
	}
	wg.Wait()
}

// decodeOpen is the first two steps of every request: the body becomes a
// project, the project an opened environment.
func decodeOpen(body []byte) (*project.Project, *core.Environment, error) {
	var p project.Project
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, nil, err
	}
	env, err := core.Open(&p)
	return &p, env, err
}

// runTraced is the whole traced pass.
func runTraced(st *stack, orc *oracle, cfg config, win window) (map[string]float64, []error) {
	lp := &layerPass{st: st, orc: orc, rec: newRecorder(), vals: map[string]float64{}}
	if err := lp.prime(); err != nil {
		return lp.vals, []error{err}
	}
	before := st.srv.Stats()
	lp.replayHTTP()
	lp.replayDirect()
	lp.standalone()
	lp.serveGauges(before, win)
	if err := lp.rec.flush(cfg.outDir, st.w.name, cfg.seed); err != nil {
		lp.fail(err)
	}
	return lp.vals, lp.failures
}

// compile is the miss path of serve.compile on an opened project,
// with a span around each step.
func (lp *layerPass) compile(env *core.Environment, span func(string, func())) (*sched.Schedule, error) {
	s, err := sched.ByName(lp.st.w.alg)
	if err != nil {
		return nil, err
	}
	s = sched.WithWorkers(s, 0)
	var sc *sched.Schedule
	span("sched.schedule", func() { sc, err = s.Schedule(env.Flat.Graph, env.Project.Machine) })
	if err != nil {
		return nil, err
	}
	span("sched.validate", func() {
		err = sc.Validate()
		sc.Finalize()
	})
	if err != nil {
		return nil, err
	}
	span("machine.precompute", sc.Machine.Topo.Precompute)
	return sc, nil
}

// untimed is the span function of a call nobody is timing.
func untimed(_ string, f func()) { f() }

// prime builds the {flat, schedule} pair the server's cache holds for
// the primed weights, the reference schedule of the same design, and
// the counts that describe them.
func (lp *layerPass) prime() error {
	body := lp.st.in.bodies[len(lp.st.in.bodies)-warmups]
	_, env, err := decodeOpen(body)
	if err != nil {
		return err
	}
	sc, err := lp.compile(env, untimed)
	if err != nil {
		return err
	}
	lp.flat, lp.sc = env.Flat, sc

	m, err := newMachine("hypercube:3")
	if err != nil {
		return err
	}
	if lp.ref, err = (sched.ETF{}).Schedule(env.Flat.Graph, m); err != nil {
		return err
	}
	lp.ref.Finalize()
	m.Topo.Precompute()

	msgs, _ := sc.CommVolume()
	lp.vals["project.body_kb"] = float64(len(body)) / 1024
	lp.vals["graph.tasks"] = float64(len(env.Flat.Graph.Tasks()))
	lp.vals["graph.arcs"] = float64(len(env.Flat.Graph.Arcs()))
	lp.vals["sched.makespan_us"] = float64(sc.Makespan())
	lp.vals["sched.msgs"] = float64(msgs)
	return nil
}

// replayHTTP replays the workload's requests over HTTP with a span
// around each round trip.
func (lp *layerPass) replayHTTP() {
	n := int64(lp.st.w.replay)
	replies := lp.st.drive(func(sent int64) bool { return sent < n })
	var kb []float64
	for _, r := range replies {
		lp.rec.add("serve.request", -1, r.index, r.start, r.start.Add(r.latency))
		if err := lp.orc.check(r); err != nil {
			lp.fail(err)
		}
		kb = append(kb, float64(len(r.body))/1024)
	}
	lp.medianOf("serve.request_ms", "serve.request")
	lp.vals["serve.response_kb"] = median(kb)
}

// replayDirect replays as many requests through the public calls the
// handler makes, with the workload's client count, so the layers
// contend for the cores as they do behind HTTP.
func (lp *layerPass) replayDirect() {
	var answers []reply
	each(lp.st.w.clients, int64(lp.st.w.replay), func(int64) {
		index := lp.st.next.Add(1) - 1
		got, err := lp.direct(index)
		if err != nil {
			lp.fail(fmt.Errorf("direct request %d: %w", index, err))
			return
		}
		body, err := json.Marshal(got)
		lp.mu.Lock()
		answers = append(answers, reply{index: index, status: http.StatusOK, body: body, err: err})
		lp.mu.Unlock()
	})
	for _, r := range answers {
		if err := lp.orc.check(r); err != nil {
			lp.fail(fmt.Errorf("direct: %w", err))
		}
	}

	children := lp.medianOf("project.decode_ms", "project.decode") +
		lp.medianOf("graph.flatten_ms", "graph.flatten") +
		lp.medianOf("sched.fingerprint_ms", "sched.fingerprint") +
		lp.medianOf("serve.respond_ms", "serve.respond")
	if lp.st.w.variants > 1 {
		children += lp.medianOf("sched.schedule_ms", "sched.schedule") +
			lp.medianOf("sched.validate_ms", "sched.validate") +
			median(lp.rec.ms("machine.precompute"))
	}
	if lp.st.w.mode == "run" {
		children += lp.medianOf("trace.summarize_ms", "trace.summarize")
		if lp.st.w.fleet {
			children += lp.medianOf("wire.fleet_run_ms", "wire.fleet_run")
		} else {
			children += lp.medianOf("exec.run_ms", "exec.run")
		}
	}
	// What the request costs beyond its layers: HTTP, admission, cache
	// lookup. Taken between two replays of the same requests, so it can
	// come out negative when the layers ran slower the second time.
	request := lp.vals["serve.request_ms"]
	overhead := request - median(lp.rec.ms("direct.request"))
	lp.vals["serve.overhead_ms"] = overhead
	if request > 0 {
		lp.vals["serve.accounted_pct"] = 100 * (children + overhead) / request
	}
}

// direct answers request index through the public calls
// serve.handleRun and compile make, in their order.
func (lp *layerPass) direct(index int64) (got serve.RunResponse, err error) {
	w := lp.st.w
	body := lp.st.in.bodies[index%int64(len(lp.st.in.bodies))]
	root := lp.rec.open("direct.request", -1, index)
	defer lp.rec.close(root)
	span := func(name string, f func()) { lp.rec.timed(name, root, index, f) }

	var p project.Project
	span("project.decode", func() { err = json.Unmarshal(body, &p) })
	if err != nil {
		return got, err
	}
	var env *core.Environment
	span("graph.flatten", func() { env, err = core.Open(&p) })
	if err != nil {
		return got, err
	}
	span("sched.fingerprint", func() { sched.Fingerprint(env.Flat, p.Machine, w.alg) })

	flat, sc, verdict := lp.flat, lp.sc, "hit"
	if w.variants > 1 {
		verdict = "miss"
		if sc, err = lp.compile(env, span); err != nil {
			return got, err
		}
		flat = env.Flat
	}

	got = serve.RunResponse{Name: p.Name, Algorithm: w.alg, Cache: verdict}
	if w.mode == "schedule" {
		span("serve.respond", func() {
			msgs, _ := sc.CommVolume()
			got.Msgs, got.MakespanUS = int64(msgs), int64(sc.Makespan())
			got.PEs, got.Speedup = sc.UsedPEs(), sc.Speedup()
			_, err = json.Marshal(got)
		})
		return got, err
	}

	runner := &exec.Runner{Inputs: p.Inputs, VirtualTime: w.virtual, WatchdogMin: 5 * time.Minute}
	var res *exec.Result
	if w.fleet {
		span("wire.fleet_run", func() { res, err = lp.st.fleet.Run(context.Background(), runner, sc, flat) })
	} else {
		span("exec.run", func() { res, err = runner.RunContext(context.Background(), sc, flat) })
	}
	if err != nil {
		return got, err
	}
	span("trace.summarize", func() {
		st, serr := res.Trace.Summarize(sc.Machine.NumPE())
		if serr == nil {
			got.Tasks, got.Msgs = int64(st.TasksRun), int64(st.Msgs)
		}
		err = serr
	})
	if err != nil {
		return got, err
	}
	span("serve.respond", func() {
		got.ElapsedUS, got.Printed = res.Elapsed.Microseconds(), res.Printed
		got.Outputs = make(map[string]string, len(res.Outputs))
		for k, v := range res.Outputs {
			got.Outputs[k] = fmt.Sprintf("%s", v)
		}
		_, err = json.Marshal(got)
	})
	lp.set("trace.events", float64(len(res.Trace.Events)))
	return got, err
}

// standalone times the layers the replays do not reach on this
// workload, each call alone in the process, and the exact counts.
func (lp *layerPass) standalone() {
	w := lp.st.w
	body := lp.st.in.bodies[len(lp.st.in.bodies)-warmups] // the primed weights

	// The routing tables of a freshly decoded machine. Inside a request
	// they are built lazily by the first call that routes (the
	// scheduler on a miss), so their own cost only shows here.
	lp.reps(func(span func(string, func())) error {
		p, _, err := decodeOpen(body)
		if err != nil {
			return err
		}
		span("machine.precompute.fresh", p.Machine.Topo.Precompute)
		return nil
	})
	lp.medianOf("machine.precompute_ms", "machine.precompute.fresh")

	// On the workloads that hit the cache no request schedules; this is
	// what the one miss that primed it paid.
	if w.variants == 1 {
		lp.reps(func(span func(string, func())) error {
			_, env, err := decodeOpen(body)
			if err != nil {
				return err
			}
			_, err = lp.compile(env, span)
			return err
		})
		lp.medianOf("sched.schedule_ms", "sched.schedule")
		lp.medianOf("sched.validate_ms", "sched.validate")
	}

	lp.replan()

	_, env, err := decodeOpen(body)
	if err != nil {
		lp.fail(err)
		return
	}
	var blob []byte
	lp.reps(func(span func(string, func())) error {
		var err error
		span("pits.rehearse", func() { _, err = env.Rehearse() })
		if err != nil {
			return err
		}
		span("exec.simulate", func() { _, err = exec.Simulate(lp.sc) })
		if err != nil {
			return err
		}
		span("gantt.chart", func() { gantt.Chart(lp.sc, 72) })
		span("wire.encode_schedule", func() { blob, err = wire.EncodeSchedule(lp.sc) })
		if err != nil {
			return err
		}
		span("wire.decode_schedule", func() { _, err = wire.DecodeSchedule(blob) })
		return err
	})
	rehearse := lp.medianOf("pits.rehearse_ms", "pits.rehearse")
	lp.medianOf("exec.simulate_ms", "exec.simulate")
	lp.medianOf("gantt.chart_ms", "gantt.chart")
	lp.medianOf("wire.encode_schedule_ms", "wire.encode_schedule")
	lp.medianOf("wire.decode_schedule_ms", "wire.decode_schedule")
	lp.vals["wire.schedule_blob_kb"] = float64(len(blob)) / 1024

	// A layer off this workload's path is timed on the reference
	// schedule instead, so every layer has a figure on every workload.
	execSc, wireSc := lp.ref, lp.ref
	if w.mode == "run" {
		execSc = lp.sc
	}
	if w.fleet {
		wireSc = lp.sc
	}
	run := lp.wireProbes(wireSc, env.Project.Inputs)
	if w.mode != "run" || w.fleet {
		lp.vals["exec.run_ms"] = run // elsewhere the replay timed it inside the request
	}
	lp.execAlone(execSc, env.Project.Inputs)
	if rehearse > 0 {
		lp.vals["exec.overhead_ratio"] = lp.vals["exec.run_ms"] / rehearse
	}
}

// wireProbes times the distributed layers on sc: the coordinator
// straight at two worker daemons with no membership layer, and the
// wall-clock in-process twin of the same run, whose median it returns.
// On run-fleet they run under the workload's client count like the
// replay that timed Fleet.Run; elsewhere alone, on daemons of the
// pass's own, and Fleet.Run is timed here too.
func (lp *layerPass) wireProbes(sc *sched.Schedule, inputs pits.Env) float64 {
	w, host := lp.st.w, lp.st
	clients, n := w.clients, int64(w.replay)
	if !w.fleet {
		clients, n = 1, probeReps
		host = &stack{}
		defer host.close()
		if err := host.startFleet(); err != nil {
			lp.fail(err)
			return 0
		}
	}
	runner := func() *exec.Runner { return &exec.Runner{Inputs: inputs, WatchdogMin: 5 * time.Minute} }
	timed := func(name string, run func() (*exec.Result, error)) {
		each(clients, n, func(int64) {
			var res *exec.Result
			var err error
			lp.rec.timed(name, -1, -1, func() { res, err = run() })
			if err == nil {
				var ts *trace.Stats
				if ts, err = res.Trace.Summarize(sc.Machine.NumPE()); err == nil && ts.WireBytes > 0 {
					lp.set("wire.bytes_per_run", float64(ts.WireBytes)/1024)
				}
			}
			if err != nil {
				lp.fail(fmt.Errorf("%s: %w", name, err))
			}
		})
	}
	timed("exec.run.twin", func() (*exec.Result, error) {
		return runner().RunContext(context.Background(), sc, lp.flat)
	})
	timed("wire.coord_run", func() (*exec.Result, error) {
		co := &wire.Coordinator{Transport: wire.TCP(), Addrs: host.workers, Runner: runner(), Mesh: true,
			HeartbeatEvery: host.fleet.HeartbeatEvery, PeerTimeout: host.fleet.PeerTimeout}
		return co.Run(context.Background(), sc, lp.flat)
	})
	if !w.fleet {
		timed("wire.fleet_run", func() (*exec.Result, error) {
			return host.fleet.Run(context.Background(), runner(), sc, lp.flat)
		})
		lp.medianOf("wire.fleet_run_ms", "wire.fleet_run")
	}
	twin := median(lp.rec.ms("exec.run.twin"))
	coord := lp.medianOf("wire.coord_run_ms", "wire.coord_run")
	lp.vals["wire.dist_overhead_ms"] = coord - twin
	lp.vals["wire.fleet_overhead_ms"] = lp.vals["wire.fleet_run_ms"] - coord
	return twin
}

// execAlone runs sc in-process one run at a time: what a run
// allocates, how many goroutines it holds at once (sampled at 1 kHz),
// what its counters say, and what summarising its trace costs.
func (lp *layerPass) execAlone(sc *sched.Schedule, inputs pits.Env) {
	w := lp.st.w
	numPE := sc.Machine.NumPE()
	var stats exec.Stats
	var allocMB, peak []float64
	lp.reps(func(span func(string, func())) error {
		var m0, m1 runtime.MemStats
		stop, sampled := make(chan struct{}), make(chan int)
		go func() {
			tick := time.NewTicker(time.Millisecond)
			defer tick.Stop()
			most := 0
			for {
				select {
				case <-tick.C:
					most = max(most, runtime.NumGoroutine())
				case <-stop:
					sampled <- most
					return
				}
			}
		}()
		r := &exec.Runner{Inputs: inputs, Stats: &stats, VirtualTime: w.virtual, WatchdogMin: 5 * time.Minute}
		runtime.ReadMemStats(&m0)
		res, err := r.RunContext(context.Background(), sc, lp.flat)
		runtime.ReadMemStats(&m1)
		close(stop)
		peak = append(peak, float64(<-sampled))
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		if err != nil {
			return err
		}
		if w.mode != "run" { // elsewhere the replay summarised the request's own trace
			span("trace.summarize", func() { _, err = res.Trace.Summarize(numPE) })
			lp.vals["trace.events"] = float64(len(res.Trace.Events))
		}
		return err
	})
	lp.medianOf("trace.summarize_ms", "trace.summarize")
	snap := stats.Snapshot()
	lp.vals["exec.alloc_mb_per_run"] = median(allocMB)
	// What the session's never-blocking inboxes alone should cost:
	// every hosted PE gets (PEs+1)·(msgs+arcs+2) slots.
	slots := numPE * (numPE + 1) * (len(sc.Msgs) + len(lp.flat.Graph.Arcs()) + 2)
	lp.vals["exec.alloc_formula_mb"] = float64(slots*xmsgBytes) / (1 << 20)
	lp.vals["exec.goroutines_peak"] = median(peak)
	lp.vals["exec.tasks_run"] = float64(snap.TasksRun) / probeReps
	lp.vals["exec.msgs_sent"] = float64(snap.MsgsSent) / probeReps
	lp.vals["exec.retries"] = float64(snap.Retries) / probeReps
}

// replan times the fleet-change barrier's replan on the reference
// schedule: two of eight processors drain with the first third of the
// schedule done, their results re-homed round-robin onto the
// survivors (the drain case of BenchmarkElasticReplan).
func (lp *layerPass) replan() {
	sc := lp.ref
	live := make([]bool, sc.Machine.NumPE())
	var survivors []int
	for pe := 2; pe < len(live); pe++ {
		live[pe] = true
		survivors = append(survivors, pe)
	}
	cut := sc.Makespan() / 3
	done := map[graph.NodeID]int{}
	rehomed := 0
	for _, sl := range sc.Slots {
		if sl.Dup || sl.Finish > cut {
			continue
		}
		pe := sl.PE
		if !live[pe] {
			pe = survivors[rehomed%len(survivors)]
			rehomed++
		}
		done[sl.Task] = pe
	}
	lp.reps(func(span func(string, func())) error {
		var err error
		span("sched.replan", func() { _, err = sched.Replan(sc, sched.ReplanState{Live: live, Done: done}) })
		return err
	})
	lp.medianOf("sched.replan_ms", "sched.replan")
}

// serveGauges reads the server's own counters and the untraced
// window's runtime counters.
func (lp *layerPass) serveGauges(before serve.StatsResponse, win window) {
	after := lp.st.srv.Stats()
	hits := after.Cache.Hits - before.Cache.Hits
	if lookups := hits + after.Cache.Misses - before.Cache.Misses; lookups > 0 {
		lp.vals["serve.cache_hit_ratio"] = float64(hits) / float64(lookups)
	}
	lp.vals["serve.rejected"] = float64(after.Runs.Rejected)
	idle := settledGoroutines()
	lp.vals["serve.goroutines_idle"] = float64(idle)
	lp.vals["serve.goroutines_growth"] = float64(idle - before.Goroutines)

	if peak, err := rssMB("VmHWM"); err == nil {
		lp.vals["runtime.peak_rss_mb"] = peak
	} else {
		lp.fail(err)
	}
	if n := float64(len(win.replies)); n > 0 {
		lp.vals["runtime.gc_cycles_per_req"] = float64(win.gcCycles) / n
		lp.vals["runtime.gc_pause_ms_per_req"] = float64(win.gcPause) / float64(time.Millisecond) / n
	}
	if p50 := median(latenciesMS(win.replies)); p50 > 0 {
		lp.vals["bench.trace_overhead_pct"] = 100 * (lp.vals["serve.request_ms"] - p50) / p50
	}
}

// settledGoroutines waits (briefly) for finished runs' goroutines to
// exit and returns the count the process idles at.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 25; i++ {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
