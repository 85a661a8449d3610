GO ?= go

.PHONY: build test vet race verify bench bench-smoke bench-check bench-e2e serve-smoke chaos chaos-smoke churn multisoak conform fuzz-smoke

build:
	$(GO) build ./...

# Each guard below keeps a retired mechanism from coming back; the
# comment above it says which.
vet:
	$(GO) vet ./...
# One data plane: Coordinator.Mesh and Fleet.Mesh are ignored fields (ROADMAP 3(d)) nothing reads back into a meaning.
	! grep -rnE '\.Mesh([^(A-Za-z0-9_]|$$)' --include='*.go' internal cmd | grep -v _test.go | grep -vE 'Mesh +bool'
# One run lifecycle: planning a barrier and merging partials are exec.Lifecycle's alone, never internal/wire's.
	! grep -rnE 'PlanResume|MergePartials' --include='*.go' internal/wire
# One recovery loop: the single-process one must not grow back beside exec.Lifecycle.
	! grep -rn 'recoverRun' --include='*.go' internal/exec | grep -v _test.go
# Serial schedule construction: sched.WithWorkers is an identity function (ROADMAP 3(d)) no code here may call.
	! grep -rn 'WithWorkers(' --include='*.go' internal cmd | grep -v _test.go | grep -v 'func WithWorkers('
# Serial schedule construction: the candidate-scan pool must not come back.
	! grep -rnE 'SchedOptions|parScan|workerPool|ScheduleOnWorkers' --include='*.go' internal cmd | grep -v _test.go
# One program table: parsed routines are memoized in internal/pits, and exec grows no memo of its own.
	! grep -rnE 'progCache|parseCached' --include='*.go' internal/exec | grep -v _test.go
# A hung run is decided, not timed: WatchdogMin is two ignored fields (ROADMAP 3(d)) that nothing reads or sets.
	! grep -rnE 'WatchdogMin|GraceFactor|NoWatchdog|watchdogDeadline' --include='*.go' internal cmd | grep -v _test.go | grep -vE 'WatchdogMin +time\.Duration|// WatchdogMin is ignored'
# A trace is ordered by typed code: the reflection-driven sort.Slice family stays out of internal/trace.
	! grep -rn 'sort\.Slice' --include='*.go' internal/trace | grep -v _test.go
# A dense message path: internal/exec's one map keyed by message name is a compiled era's name -> ordinal table.
	! grep -rnE 'map\[msgKey\]' --include='*.go' internal/exec | grep -v _test.go | grep -v 'type ordinals map\[msgKey\]int32'
# A fleet run's own connect is its liveness check: no dial-and-close probe before every run.
	! grep -n 'func (f \*Fleet) probe' internal/wire/fleet.go
# A compiled era lives on its schedule: no package-level table in internal/exec, which would pin every schedule a server ran.
	! awk 'FNR==1{b=0} /^var \(/{b=1} /^\)/{b=0} (b||/^var /)&&/sync\.Map|map\[/{print FILENAME":"FNR": "$$0; f=1} END{exit !f}' $$(ls internal/exec/*.go | grep -v _test.go)
# One body scan: the server decodes a body it holds whole through project.Decode, not a streaming decoder.
	! grep -n 'json.NewDecoder' internal/serve/server.go
# One graph map: a graph's arc lists hang off the nodes its one index map holds.
	! grep -nE 'map\[NodeID\]\[\]Arc' $$(ls internal/graph/*.go | grep -v _test.go)
# One ETF: a replan grows no processor clock or arrival of its own.
	! grep -nE 'procFree|arrival :=' internal/sched/recover.go
# A BSP superstep is an order: no start waits for a barrier.
	! grep -nE 'levelEnd|barrier >' internal/sched/bsp.go
# MH's arrival rows start at their contention-free floor: no never-computed state.
	! grep -n 'mhStampNever' internal/sched/mh.go
# MH's route tables are built once per topology: no per-call carve of them.
	! grep -nE 'routeLinks = ar\.' internal/sched/mh.go
# One run cap: `banger serve -max-runs`; the fleet keeps no second one.
	! grep -n 'MaxRuns' internal/wire/fleet.go
# A cached schedule costs its design, not its machine's square: the index keeps no processor-pair matrix.
	! grep -n 'numPE\*numPE' internal/sched/index.go
# One communication table per topology: a machine value keeps none of its own.
	! grep -rn 'commTable' --include='*.go' internal/machine
# Placement builds its traffic matrix and drops it: a schedule answers no per-pair traffic.
	! grep -rn 'PairTraffic' --include='*.go' internal cmd
# One measurement system: the retired per-PR baseline files are cited nowhere in code, CI or docs.
	! grep -rn 'BENCH_P[R]' Makefile .github cmd docs examples internal *.go README.md DESIGN.md EXPERIMENTS.md
# Frames leave when a burst ends: a hosted run keeps no flush ticker.
	! grep -rnE 'flushEvery|stopFlush' --include='*.go' internal/wire
# Flushing is part of exec.RemotePlane: no optional flusher interface beside it.
	! grep -rn 'RemoteFlusher' --include='*.go' internal cmd
# A project's missing input is found in flat node order, on the bind path and the flatten path alike: no ranging over the ExternalIn map.
	! grep -nE 'range flat\.ExternalIn( |$$)' internal/project/project.go
# One event log per session: the partial takes the workers' log; Wait copies no worker's events into a new one.
	! grep -n 'append(p.Events, w.events\.\.\.)' internal/exec/session.go
# A result carries no string table: the events codec names tasks and variables by their place in the run's flat graph.
	! awk '/^func (eventsLen|appendEvents?|DecodeEvents|AppendEvents)\(/,/^}/' internal/wire/codec.go | grep -nE 'newStringTable|decodeStringTable'
# A fleet run's log is made once: the coordinator decodes a result's events into the run's log at the merge, into no array of their own.
	! grep -n 'DecodeEvents(' internal/wire/coord.go
# Summarize pairs spans without storing them: it shares Spans' pairing walk, not its map.
	! awk '/^func \(t \*Trace\) Summarize\(/,/^}/' internal/trace/trace.go | grep -n 'Spans()'
# One idle pool: a fleet's parked links and a daemon's parked mesh links are both idleConns; no second map of parked connections beside it.
	! awk '/^(type idleConns|func \(p \*idleConns\))/{b=1} /^}/{b=0} !b && /map\[string\]\[\]Conn/{print FILENAME":"FNR": "$$0; f=1} END{exit !f}' $$(ls internal/wire/*.go | grep -v _test.go)
# One control listener, the fleet's: a run opens none of its own.
	! grep -rnE 'ControlReady|serveControl' --include='*.go' internal cmd
# One front door: every distributed run outside the benchmark is a Fleet run, and only a Fleet builds the per-run driver.
	! grep -rnE '(wire\.|&)Coordinator\{' --include='*.go' internal cmd | grep -v _test.go
# One drain floor and one control plane: Coordinator declares no Control or MinWorkers field of its own.
	! awk '/^type Coordinator struct/,/^}/' internal/wire/coord.go | grep -nE '^[[:space:]]*(Control|MinWorkers)[[:space:]]'
# One retransmission rule: a dropped or corrupted copy is resent once, at the send; no ack loop, no backoff knobs, no second rule for the remote plane.
	! grep -rnE 'RetryBase|RetryCap|retryBase|retryCap|ackMsg|sendReliable|retransmitRemote' --include='*.go' internal cmd
# One arrival rule: sched.Schedule.Deliver says when a message arrives, so non-test internal/exec names no scheduler.
	! grep -rnE '"mh"|sched\.MH' --include='*.go' internal/exec | grep -v _test.go
# One prediction per schedule: Simulate reproduces every scheduler's own times, so no second trace of them comes back.
	! grep -rn 'func Predicted' --include='*.go' .
# One shape digest: its field sequence is written once, in shapeWriter's methods, so Graph.ShapeKey and Doc.ShapeKey cannot drift apart.
	! awk 'FNR==1{b=0} /^func \(w \*(shapeWriter|Hasher)\)/{if ($$0 !~ /}$$/) b=1; next} /^}/{b=0} !b && /\.(Str|Num)\(/{print FILENAME":"FNR": "$$0; f=1} END{exit !f}' $$(ls internal/graph/*.go | grep -v _test.go)
# A run is counted once, from its log: no worker bumps a model counter on the hot path.
	! grep -rnE 'stats\.(TasksRun|MsgsSent|MsgsRecv|Retries|FaultsInjected)\.Add' --include='*.go' internal/exec | grep -v _test.go
# A run is counted once, from its log: a result note carries no model counts for the coordinator to add.
	! grep -rn 'note\.Stats' --include='*.go' internal/wire | grep -v _test.go
# Task work is measured by a trial run: no static estimator beside Measure.
	! grep -rn 'func Estimate(' --include='*.go' internal/pits
# A routine runs compiled over numbered slots: no task builds a name-keyed environment in internal/exec.
	! grep -rn 'make(pits.Env' --include='*.go' internal/exec | grep -v _test.go
# One interpreter, the compiled op list: the recursive tree walker stays gone from internal/pits.
	! grep -rn 'func (in \*Interp) eval(' --include='*.go' internal/pits
# A deadlock is decided once, by counting, in exec.Lifecycle: no stall timer, no knob for it, and no progress counter on the hot path to feed one.
	! grep -rnE 'stallWatch|StallTimeout|stallTimeout|progress\.Add|quiescent' --include='*.go' internal/exec internal/wire | grep -v _test.go
# A run's log is paid once per cached schedule: the lifecycle takes the run's log from the schedule's spares and makes none of its own.
	! grep -n 'make(\[\]trace.Event' internal/exec/lifecycle.go
# A worker blocks in one place, on its mailbox's wake-up channel: no pause sentinel, and no select on the barrier, the next era or the run's end in internal/exec.
	! grep -rnE 'errPaused|case <-w\.(er\.pause|er\.resume|ctrl\.done|ctrl\.finish)' --include='*.go' internal/exec | grep -v _test.go
	test "$$(grep -c '<-' internal/exec/worker.go)" = 1
# Every fuzz target under internal/ runs in fuzz-smoke.
	! for f in $$(grep -rhoE '^func Fuzz[A-Za-z0-9_]+' --include='*_test.go' internal | cut -c6-); do sed -n '/^fuzz-smoke:/,/^$$/p' Makefile | grep -q -- "-fuzz $$f " || echo "$$f is not in fuzz-smoke"; done | grep .

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
# build-once routing tables; internal/project for its table of design
# shapes, which concurrent opens read and fill, and internal/serve for
# the schedule cache its concurrent requests share.
race:
	$(GO) test -race ./internal/exec/...
	$(GO) test -race ./internal/pits/... ./internal/machine/... ./internal/project/ ./internal/serve/
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
# floor (decode + open + fingerprint of the harness body), one request
# of the run-wide and predict-hit workloads through serve's handler, the task floor
# (one task's environment, interpretation and two trace events) and the
# runners — virtual time (with the harness's run-wide shape), wall clock,
# distributed, and through a fleet (the harness's run-fleet shape, with
# its dials and shipped schedule bytes per run): catches crashes or
# pathological slowdowns in the hot paths without the cost of a
# statistically meaningful benchmark run. -short keeps the 32k/100k
# graphs out of the smoke pass.
bench-smoke:
	$(GO) test -run=NONE -bench='RequestFloor|TaskFloor|SchedulerScaling|MHCold|ServeRequest' -benchtime=1x -benchmem -short .
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
# heartbeat budgets long, hence the lower count), and the mesh links
# parked across runs — reused, lost with their daemon or member, never
# shared by two runs at once — and so are the session logs a daemon
# recycles; and a fleet run whose every member died reports why it
# failed; and a lost cross-worker message is the in-process deadlock
# report within 100 ms, while a member 2 s deep in one routine is never
# taken for deadlocked.
# chaos-smoke is the same selection at CI's lower counts.
CHAOS_EXEC = Fault|Crash|Random|Deadlock|PartialSession|Duplicate|WallClockSummary
CHAOS_WIRE = DropsDeadWorker|MemberKilled|RestartedDaemon|ParkedLinksEnd|ReuseMeshLinks|ParkedMeshLink|NoParkedMeshLink|ShareAMeshLink|ShareALog|KeepsCause|LostMessageIsReportedAsDeadlock|SlowMemberIsNotDeadlocked

chaos:
	$(GO) test -race -count=50 -run '$(CHAOS_EXEC)' ./internal/exec/
	$(GO) test -race -count=10 -run '$(CHAOS_WIRE)' ./internal/wire/

chaos-smoke:
	$(GO) test -race -count=5 -run '$(CHAOS_EXEC)' ./internal/exec/
	$(GO) test -race -count=3 -run '$(CHAOS_WIRE)' ./internal/wire/

# Differential conformance sweep: 25 deterministic seeds, each run
# through the analytic simulator, the virtual-time runner, and both
# distributed backends (in-process and TCP), cross-checking outputs,
# traces, makespans, causality and message conservation. Every 5th
# seed additionally runs the multi-run concurrency scenario: 2-3 cases
# multiplexed on one shared fleet, each checked byte-identical to its
# solo baseline, and every 5th its lost-message case: one copy dropped
# with retry off, which the runner and both backends must report as the
# same deadlock. Failures are minimized and written as repro dirs
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
	$(GO) test -run '^$$' -fuzz FuzzDecodeValue -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEnv -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeSchedule -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvents -fuzztime 5s ./internal/wire/
	$(GO) test -run '^$$' -fuzz FuzzParseFaults -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzDeliver -fuzztime 5s ./internal/exec/
	$(GO) test -run '^$$' -fuzz FuzzShapeBind -fuzztime 5s ./internal/project/
	$(GO) test -run '^$$' -fuzz FuzzDecodeShape -fuzztime 5s ./internal/project/
	$(GO) test -run '^$$' -fuzz FuzzConform -fuzztime 20s ./internal/conform/
