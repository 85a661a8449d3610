GO ?= go

.PHONY: build test vet race verify bench bench-smoke bench-check bench-e2e bench-dist bench-serve serve-smoke chaos churn multisoak conform fuzz-smoke

build:
	$(GO) build ./...

# The second line keeps the data plane at one mode: Coordinator.Mesh
# and Fleet.Mesh are declared no-ops (kept until the frozen benchmark
# harness stops naming them) and nothing may read them back into a
# meaning. The next two keep the run lifecycle in one place: planning a
# barrier and merging partials are exec.Lifecycle's alone, so
# internal/wire may not name either, and the single-process recovery
# loop must not grow back beside it. The last two keep schedule
# construction serial: sched.WithWorkers is a declared identity function
# (kept until the frozen benchmark harness stops calling it) that no
# code here may call, and the candidate-scan pool must not come back.
# The next keeps the program table single: parsed routines are
# memoized in internal/pits, and exec must not grow its own memo back.
# The next keeps a hung run decided, not timed: WatchdogMin survives as
# two ignored fields the frozen harness names, read or set by nothing.
# The next keeps a trace ordered by typed code: the reflection-driven
# sort.Slice family must not come back to internal/trace.
# The last two keep a run's message path dense and its compiled era on
# the schedule: one map keyed by message name may exist in internal/exec
# (a compiled era's name -> ordinal table, for deliveries that arrive by
# name from another process), and no package-level table at all — one
# keyed by schedule would pin every schedule a server ever ran.
# The last keeps a fleet's liveness check where its run is: a run's own
# connect drops a member that cannot be dialled, and the dial-and-close
# probe before every run must not come back.
# The last two keep the request floor at one of each: the server decodes
# a body it holds whole through project.Decode (a streaming decoder reads
# through a doubling buffer and scans the document twice more), and a
# graph's arc lists hang off the nodes its one index map holds.
# The next keeps one ETF: a replan grows no processor clock or arrival of its own.
# The next keeps a BSP superstep an order: no start waits for a barrier.
# The next keeps MH's arrival rows at their contention-free floor from the start: no never-computed state.
# The last keeps MH's route tables built once per topology: no per-call carve of them.
vet:
	$(GO) vet ./...
	! grep -rnE '\.Mesh([^(A-Za-z0-9_]|$$)' --include='*.go' internal cmd | grep -v _test.go | grep -vE 'Mesh +bool'
	! grep -rnE 'PlanResume|MergePartials' --include='*.go' internal/wire
	! grep -rn 'recoverRun' --include='*.go' internal/exec | grep -v _test.go
	! grep -rn 'WithWorkers(' --include='*.go' internal cmd | grep -v _test.go | grep -v 'func WithWorkers('
	! grep -rnE 'SchedOptions|parScan|workerPool|ScheduleOnWorkers' --include='*.go' internal cmd | grep -v _test.go
	! grep -rnE 'progCache|parseCached' --include='*.go' internal/exec | grep -v _test.go
	! grep -rnE 'WatchdogMin|GraceFactor|NoWatchdog|watchdogDeadline' --include='*.go' internal cmd | grep -v _test.go | grep -vE 'WatchdogMin +time\.Duration|// WatchdogMin is ignored'
	! grep -rn 'sort\.Slice' --include='*.go' internal/trace | grep -v _test.go
	! grep -rnE 'map\[msgKey\]' --include='*.go' internal/exec | grep -v _test.go | grep -v 'type ordinals map\[msgKey\]int32'
	! grep -n 'func (f \*Fleet) probe' internal/wire/fleet.go
	! awk 'FNR==1{b=0} /^var \(/{b=1} /^\)/{b=0} (b||/^var /)&&/sync\.Map|map\[/{print FILENAME":"FNR": "$$0; f=1} END{exit !f}' $$(ls internal/exec/*.go | grep -v _test.go)
	! grep -n 'json.NewDecoder' internal/serve/server.go
	! grep -nE 'map\[NodeID\]\[\]Arc' $$(ls internal/graph/*.go | grep -v _test.go)
	! grep -nE 'procFree|arrival :=' internal/sched/recover.go
	! grep -nE 'levelEnd|barrier >' internal/sched/bsp.go
	! grep -n 'mhStampNever' internal/sched/mh.go
	! grep -nE 'routeLinks = ar\.' internal/sched/mh.go

test:
	$(GO) test ./...

# Race-detector pass over every concurrent subsystem: the runner (one
# goroutine per processor, and one compiled era per schedule that every
# concurrent run of it reads), the full scheduler package (Compare and
# SpeedupCurve schedule concurrently, and concurrent cold schedules
# meet in the compiled-view cache), the wire transport (coordinator, worker
# daemons, mesh links, reconnect replay), the conformance harness and the
# multi-process CLI integration tests. internal/pits is here for its
# two pieces of cross-goroutine state, the shared builtin table and the
# program table, and internal/machine with it for a topology's
# build-once routing tables.
race:
	$(GO) test -race ./internal/exec/...
	$(GO) test -race ./internal/pits/... ./internal/machine/...
	$(GO) test -race ./internal/sched/...
	$(GO) test -race ./internal/wire/
	$(GO) test -race ./internal/conform/
	$(GO) test -race ./cmd/banger/

# Tier-1 verification: what every PR must keep green.
verify: build vet test race bench-smoke

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# One-iteration pass over the scheduler scaling benchmarks, MH on a
# machine it has not seen (ring:32, ring:128, hypercube:7), the request
# floor (decode + open + fingerprint of the harness body), the task floor
# (one task's environment, interpretation and two trace events) and the
# runners — virtual time (with the harness's run-wide shape), wall clock,
# distributed, and through a fleet (the harness's run-fleet shape, with
# its dials and shipped schedule bytes per run): catches crashes or
# pathological slowdowns in the hot paths without the cost of a
# statistically meaningful benchmark run. -short keeps the 32k/100k
# graphs out of the smoke pass.
bench-smoke:
	$(GO) test -run=NONE -bench='RequestFloor|TaskFloor|SchedulerScaling|MHCold' -benchtime=1x -benchmem -short .
	$(GO) test -run=NONE -bench='RunnerVirtual|RunnerWall|RunnerTCP|FleetRun' -benchtime=1x -benchmem .

# The request-path harness's own tests, including its smoke suite (all
# four workloads in short windows on ring:16, every reply
# oracle-checked). bench/ is a module of its own, so the root
# `go test ./...` cannot see them.
bench-check:
	cd bench && $(GO) test ./...

# The request-path benchmark end to end: four workloads, untraced then
# traced, every metric printed, result in bench/out/result.json.
bench-e2e:
	bash bench/run.sh -seed 1

# The committed scheduler baselines (BENCH_PR7.json) were measured with
# this: every heuristic over the scaling sweep, plus the 32k- and
# ~100k-task graphs for the near-linear schedulers, allocation counts
# on. The first schedule of each sub-benchmark runs before the timer,
# so numbers are steady-state (compiled view cached, arenas pooled),
# and every sub-benchmark shares one 8-PE machine: these numbers never
# included building a topology's routing tables or communication
# table. BenchmarkMHCold measures a schedule that pays for those.
# Each big size runs in its own process: a 100k-task graph plus its
# compiled view is gigabytes of string-bearing live heap, and carrying
# one size's graph through another size's measurement taxes every GC
# cycle of the op being timed (~4x slower at 100k when the 32k state
# is still live).
bench-sched:
	$(GO) test -run=NONE -bench=SchedulerScaling -benchtime=3x -benchmem -short .
	$(GO) test -run=NONE -bench='SchedulerScaling/(etf|hlfet|bsp)/rand-L200xW160$$' -benchtime=3x -benchmem -timeout 30m .
	$(GO) test -run=NONE -bench='SchedulerScaling/(etf|hlfet|bsp)/rand-L350xW290$$' -benchtime=3x -benchmem -timeout 60m .

# The committed distributed-runtime baselines (BENCH_PR6.json, and
# BENCH_PR8.json for the fleet-change barrier replans) were measured
# with this: the wall-clock runner against the TCP mesh on loopback
# plus the elastic expand/drain replans, 15 iterations, medians of 3
# runs.
bench-dist:
	$(GO) test -run=NONE -bench='RunnerVirtual|RunnerWall|RunnerTCP|ElasticReplan' -benchtime=15x -benchmem -count=3 .

# The committed serving-layer baselines (BENCH_PR9.json, and
# BENCH_PR10.json for the fleet-backed run mode) were measured with
# this: full HTTP round trips against the control plane in both local
# request modes (schedule-only prediction and full virtual-time run),
# cold (schedule cache disabled, every submission pays the MH pass) vs
# warm (cache primed), at three concurrency levels; plus the fleet
# axis — runs executing wall-clock on a live worker fleet, {1,4,16}
# concurrent runs × {1,2,4} multiplexing daemons, with the MaxRuns=1
# serialized lease as the comparison point. Medians of 3 runs. The
# local-mode workload is the 501-task design on a 128-PE ring — the
# machine family where MH's link-contention pass is most expensive,
# i.e. the regime the schedule cache exists for.
bench-serve:
	$(GO) test -run=NONE -bench=ServeThroughput -benchtime=10x -count=3 -timeout 45m .

# Serving-layer smoke: the in-process serve tests (admission, cache,
# drain, trace streaming), the fleet membership layer, and the
# process-spawning acceptance pair — batch vs serial byte-identity
# under a mid-batch worker kill, and the local-mode SIGTERM drain —
# all under the race detector.
serve-smoke:
	$(GO) test -race -count=1 ./internal/serve/
	$(GO) test -race -count=1 -run 'TestFleet|TestRepeated' ./internal/wire/
	$(GO) test -race -count=1 -run 'TestServe' -timeout 10m ./cmd/banger/

# Churn soak: 25 seeded rounds of fleet churn under the race detector —
# each round joins a worker mid-run, drains another, SIGKILL-crashes a
# processor, and asserts outputs stay byte-identical to the undisturbed
# run. CHURN_ROUNDS/CHURN_SEED tune it (CI smoke runs 5 rounds).
churn:
	CHURN_ROUNDS=25 $(GO) test -race -run 'TestChurnSoak' -count=1 -v ./internal/wire/

# Multi-session soak: 25 seeded rounds, each submitting several
# concurrent fleet runs to the same multiplexing worker daemons while a
# worker is SIGKILL-style killed mid-round and a replacement rejoins —
# all under the race detector, every run's outputs checked against its
# solo baseline. MULTISOAK_ROUNDS/MULTISOAK_SEED tune it (CI smoke
# runs fewer rounds; a failure names the round's seed for replay).
multisoak:
	MULTISOAK_ROUNDS=25 $(GO) test -race -run 'TestMultiSoak' -count=1 -v -timeout 20m ./internal/wire/

# Chaos soak: the seeded fault-injection suite 50 times under the race
# detector — crashes, drops, duplicates, delays and corruptions against
# the recovering runtime — and with it the wall-clock run whose tasks
# start and end inside one microsecond, which only a real clock makes.
# The second line is the fleet's share: a member killed between two runs
# or under one, and a daemon restarted between two (each several
# heartbeat budgets long, hence the lower count).
chaos:
	$(GO) test -race -count=50 -run 'Fault|Crash|Random|Deadlock|Stall|Duplicate|WallClockSummary' ./internal/exec/
	$(GO) test -race -count=10 -run 'DropsDeadWorker|MemberKilled|RestartedDaemon|ParkedLinksEnd' ./internal/wire/

# Differential conformance sweep: 25 deterministic seeds, each run
# through the analytic simulator, the virtual-time runner, and both
# distributed backends (in-process and TCP), cross-checking outputs,
# traces, makespans, causality and message conservation. Every 5th
# seed additionally runs the multi-run concurrency scenario: 2-3 cases
# multiplexed on one shared fleet, each checked byte-identical to its
# solo baseline. Failures are minimized and written as repro dirs
# under conform-out/
# (replay with: go run ./cmd/banger conform -repro conform-out/seed-N).
conform: build
	$(GO) run ./cmd/banger conform -seeds 25 -jobs 4 -multi 5 -out conform-out

# Short native-fuzzing pass over the decoder/parser targets and the
# conformance harness: seconds, not minutes — catches regressions on
# the pinned corpus plus a little fresh exploration.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMsg -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzParseFaults -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzDeliver -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzConform -fuzztime 20s ./internal/conform/
