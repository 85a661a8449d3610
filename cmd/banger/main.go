// Command banger is the terminal front end of the Banger environment:
// it loads a project (a built-in sample or a JSON file), schedules it,
// draws Gantt charts and speedup predictions, trial-runs tasks through
// the calculator panel, executes the program in parallel, and
// generates standalone Go code.
//
// Usage:
//
//	banger <command> [flags]
//
// Commands:
//
//	list       list built-in projects, schedulers and topologies
//	show       print a project's dataflow design
//	topology   print an interconnection topology
//	schedule   map a project onto its machine and draw the Gantt chart
//	speedup    predict speedup across hypercube sizes
//	simulate   replay a schedule through the discrete-event simulator
//	animate    frame-by-frame replay of a simulated execution
//	rehearse   trial-run the whole design sequentially (instant feedback)
//	run        execute the scheduled program on goroutines (wall-clock
//	           or deterministic virtual time), locally or distributed
//	           over worker daemons with -dist
//	worker     host processors for "run -dist" and "serve -fleet" runs
//	drain      gracefully evacuate one worker from a running fleet
//	serve      scheduling-as-a-service control plane over HTTP/JSON
//	batch      fan runs out to a serve control plane concurrently
//	calc       open the calculator panel of one task
//	codegen    generate a standalone Go program
//	conform    differential conformance fuzzing across all engines
//	demo       guided tour over the LU example
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/calc"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/gantt"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/wire"
)

// logLevel is the threshold of the one slog handler main installs: a
// daemon's and a connection's life at Debug, fleet membership changes at
// Info, faults at Warn (RUNTIME.md "Where to read what happened").
var logLevel = new(slog.LevelVar)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	logLevel.Set(slog.LevelDebug)
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: logLevel})).With("cmd", cmd))
	var err error
	switch cmd {
	case "list":
		err = cmdList()
	case "show":
		err = cmdShow(args)
	case "topology":
		err = cmdTopology(args)
	case "schedule":
		err = cmdSchedule(args)
	case "speedup":
		err = cmdSpeedup(args)
	case "simulate":
		err = cmdSimulate(args)
	case "animate":
		err = cmdAnimate(args)
	case "rehearse":
		err = cmdRehearse(args)
	case "run":
		err = cmdRun(args)
	case "worker":
		err = cmdWorker(args)
	case "drain":
		err = cmdDrain(args)
	case "serve":
		err = cmdServe(args)
	case "batch":
		err = cmdBatch(args)
	case "calc":
		err = cmdCalc(args)
	case "codegen":
		err = cmdCodegen(args)
	case "conform":
		err = cmdConform(args)
	case "demo":
		err = cmdDemo(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "banger: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "banger:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: banger <command> [flags]

commands:
  list                          built-ins, schedulers, topology specs
  show     -project P           print the dataflow design
  topology <spec>               print a topology (e.g. hypercube:3, mesh:2x4)
  schedule -project P [-alg A] [-machine SPEC] [-csv] [-svg FILE]
           [-json FILE] [-report]
  speedup  -project P [-alg A] [-dims 0,1,2,3]
  simulate -project P [-alg A]
  animate  -project P [-alg A] [-frames N]
  rehearse -project P
  run      -project P [-alg A] [-virtual] [-chart] [-retry]
           [-faults SPEC|rand] [-fault-seed N]
           [-dist HOST:PORT,HOST:PORT,...] [-calibrate]
           [-peer-timeout D] [-heartbeat D]
           [-control HOST:PORT] [-min-workers N]
  worker   [-listen HOST:PORT] [-join CTRL]
                                host processors for a remote "run -dist";
                                -join announces to a run's -control address
  drain    -control CTRL (-worker N | -addr HOST:PORT) [-timeout D]
                                gracefully evacuate one worker mid-run
  serve    [-listen HOST:PORT] [-alg A] [-max-runs N] [-queue N]
           [-tenant-cap N] [-cache N] [-virtual]
           [-fleet HOST:PORT,...] [-control HOST:PORT] [-min-workers N]
           [-heartbeat D] [-peer-timeout D] [-drain-timeout D]
                                scheduling-as-a-service control plane:
                                POST /run, GET /healthz, GET /stats
  batch    -addr URL [-alg A] [-j N] [-tenant T] [-predict] [-timeout D]
           PROJECT...           fan runs out to a serve control plane,
                                printing outputs in argument order
                                (-predict: schedule-only, no execution)
  calc     -project P -task T [-run]
  codegen  -project P [-alg A] [-o FILE]
  conform  [-seeds N] [-start N] [-jobs M] [-out DIR] [-skew-comm US]
           [-shrink-budget N] | -repro DIR
  demo

-project takes a built-in name (lu3x3, newton-sqrt, stats, heat) or a JSON file path.`)
}

// loadProject resolves -project values: built-in names first, then a
// JSON file on disk.
func loadProject(name string) (*project.Project, error) {
	for _, b := range project.BuiltinNames() {
		if b == name {
			return project.Builtin(name)
		}
	}
	data, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("%q is neither a built-in project (%v) nor a readable file: %w",
			name, project.BuiltinNames(), err)
	}
	p, err := project.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", name, err)
	}
	return p, nil
}

// projectFlags registers the common -project/-alg flags.
func projectFlags(fs *flag.FlagSet) (proj, alg *string) {
	proj = fs.String("project", "lu3x3", "built-in project name or JSON file")
	alg = fs.String("alg", "mh", "scheduler: serial, hlfet, etf, ish, mh, dsh, pack, bsp")
	return
}

func openEnv(proj string) (*core.Environment, error) {
	p, err := loadProject(proj)
	if err != nil {
		return nil, err
	}
	return core.Open(p)
}

func cmdList() error {
	fmt.Println("built-in projects:")
	for _, n := range project.BuiltinNames() {
		fmt.Println("  ", n)
	}
	fmt.Println("schedulers:")
	for _, s := range sched.All() {
		fmt.Println("  ", s.Name())
	}
	fmt.Println("topology specs: hypercube:D mesh:RxC torus:RxC tree:BxL star:N ring:N chain:N full:N")
	return nil
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	proj := fs.String("project", "lu3x3", "project")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of ASCII")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := loadProject(*proj)
	if err != nil {
		return err
	}
	design := p.Graph()
	if *dot {
		fmt.Print(design.DOT())
		return nil
	}
	fmt.Print(design.ASCII())
	for _, n := range design.Nodes() {
		if n.Kind == graph.KindSub {
			fmt.Printf("\nexpansion of <<%s>>:\n", n.ID)
			fmt.Print(n.Sub.ASCII())
		}
	}
	fmt.Println("\nmachine:", p.Machine)
	flat, err := design.Flatten()
	if err != nil {
		return err
	}
	fmt.Println("flattened:", flat.Graph.Summary())
	return nil
}

func cmdTopology(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("topology: need a spec like hypercube:3")
	}
	topo, err := machine.ParseTopology(args[0])
	if err != nil {
		return err
	}
	fmt.Print(topo.ASCII())
	fmt.Printf("diameter %d, avg distance %.2f, %d links\n", topo.Diameter(), topo.AvgDist(), topo.NumLinks())
	return nil
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	mspec := fs.String("machine", "", "override machine topology (spec string)")
	csv := fs.Bool("csv", false, "emit slots as CSV")
	svg := fs.String("svg", "", "write an SVG Gantt chart to this file")
	jsonOut := fs.String("json", "", "write the full schedule document to this file")
	report := fs.Bool("report", false, "print a per-processor utilisation table")
	width := fs.Int("width", 72, "chart width in characters")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of schedule construction to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken after scheduling to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	m := env.Project.Machine
	if *mspec != "" {
		topo, err := machine.ParseTopology(*mspec)
		if err != nil {
			return err
		}
		if m, err = m.Scale(topo); err != nil {
			return err
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	sc, err := env.ScheduleOn(*alg, m)
	if err != nil {
		return err
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote heap profile to", *memprofile)
	}
	if *csv {
		fmt.Print(gantt.CSV(sc))
		return nil
	}
	fmt.Print(gantt.Chart(sc, *width))
	if *report {
		fmt.Print(gantt.Report(sc))
	} else {
		msgs, words := sc.CommVolume()
		fmt.Printf("%d messages carrying %d words; utilization %.0f%%\n", msgs, words, 100*sc.Utilization())
	}
	if *svg != "" {
		if err := os.WriteFile(*svg, []byte(gantt.SVG(sc)), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *svg)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonOut)
	}
	return nil
}

func cmdSpeedup(args []string) error {
	fs := flag.NewFlagSet("speedup", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	dims := fs.String("dims", "0,1,2,3", "hypercube dimensions, comma separated")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	var dd []int
	for _, s := range strings.Split(*dims, ",") {
		d, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("bad dimension %q", s)
		}
		dd = append(dd, d)
	}
	pts, err := env.SpeedupCurve(*alg, dd)
	if err != nil {
		return err
	}
	fmt.Print(gantt.Speedup(pts, 10))
	return nil
}

func cmdSimulate(args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	sc, err := env.Schedule(*alg)
	if err != nil {
		return err
	}
	tr, err := exec.Simulate(sc)
	if err != nil {
		return err
	}
	chart, err := gantt.FromTrace(tr, sc.Machine.NumPE(), 72)
	if err != nil {
		return err
	}
	fmt.Print(chart)
	st, err := tr.Summarize(sc.Machine.NumPE())
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %d tasks (+%d duplicates), %d messages, utilization %.0f%%\n",
		st.TasksRun, st.DupsRun, st.Msgs, 100*st.Utilization)
	return nil
}

func cmdAnimate(args []string) error {
	fs := flag.NewFlagSet("animate", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	frames := fs.Int("frames", 8, "number of animation frames")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	sc, err := env.Schedule(*alg)
	if err != nil {
		return err
	}
	tr, err := exec.Simulate(sc)
	if err != nil {
		return err
	}
	reel, err := gantt.Animation(tr, sc.Machine.NumPE(), *frames)
	if err != nil {
		return err
	}
	fmt.Print(reel)
	return nil
}

func cmdRehearse(args []string) error {
	fs := flag.NewFlagSet("rehearse", flag.ExitOnError)
	proj := fs.String("project", "lu3x3", "project")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	reh, err := env.Rehearse()
	if err != nil {
		return err
	}
	fmt.Printf("rehearsed %d tasks, %d measured ops total\n", len(reh.Tasks), reh.TotalOps)
	for _, tr := range reh.Tasks {
		fmt.Printf("  %-16s %6d ops\n", tr.Task, tr.Ops)
		for _, line := range tr.Printed {
			fmt.Println("     >", line)
		}
	}
	printOutputs(reh.Outputs)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	virtual := fs.Bool("virtual", false, "stamp the trace in deterministic virtual time")
	chart := fs.Bool("chart", false, "draw the executed trace as a Gantt chart")
	faults := fs.String("faults", "", `inject faults: "rand" or a spec like "crash:1@0,drop:a->b:u" (see banger help)`)
	faultSeed := fs.Int64("fault-seed", 1, "seed for -faults rand")
	retry := fs.Bool("retry", false, "resend each dropped or corrupted copy once (absorbs drops, dups and corruptions)")
	dist := fs.String("dist", "", "distribute over running workers: comma-separated host:port list")
	calibrate := fs.Bool("calibrate", false, "with -dist: measure wire latency and recalibrate the machine model before scheduling")
	peerTimeout := fs.Duration("peer-timeout", 3*time.Second, "with -dist: silence budget before a worker is declared dead")
	heartbeat := fs.Duration("heartbeat", 250*time.Millisecond, "with -dist: keepalive cadence")
	control := fs.String("control", "", "with -dist: listen address for fleet control (worker -join announces, banger drain)")
	minWorkers := fs.Int("min-workers", 0, "with -dist: refuse drains that would leave fewer live workers (0 = only forbid draining the last one)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}

	// Ctrl-C cancels the run and, in distributed mode, tears the
	// workers down cleanly instead of leaving them mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	addrs := addrList(*dist)
	if *dist != "" && len(addrs) == 0 {
		return fmt.Errorf("-dist needs at least one worker address")
	}

	m := env.Project.Machine
	if *calibrate {
		if len(addrs) == 0 {
			return fmt.Errorf("-calibrate needs -dist workers to measure against")
		}
		cctx, cancel := context.WithTimeout(ctx, *peerTimeout)
		cal, err := wire.Calibrate(cctx, wire.TCP(), addrs[0], 8)
		cancel()
		if err != nil {
			return fmt.Errorf("calibrating against %s: %w", addrs[0], err)
		}
		fmt.Printf("measured wire: message startup %dus, per-word %dus\n", cal.MsgStartup, cal.WordTime)
		if m, err = m.Calibrated(cal); err != nil {
			return err
		}
	}
	sc, err := env.ScheduleOn(*alg, m)
	if err != nil {
		return err
	}

	runner := &exec.Runner{VirtualTime: *virtual, Retry: *retry, Inputs: env.Project.Inputs}
	switch {
	case *faults == "":
	case *faults == "rand":
		runner.Faults = exec.RandomFaults(*faultSeed, sc)
		if runner.Faults == nil {
			fmt.Println("schedule offers nothing to break; running fault-free")
		} else {
			fmt.Printf("injecting seeded faults: %s\n", runner.Faults)
		}
	default:
		if runner.Faults, err = exec.ParseFaults(*faults); err != nil {
			return err
		}
	}

	var res *exec.Result
	if len(addrs) > 0 {
		// A -dist run is a one-run fleet: its workers are numbered in
		// sorted address order, and -control is the fleet's listener.
		f := &wire.Fleet{Transport: wire.TCP(), Seed: addrs, Control: *control, MinWorkers: *minWorkers,
			HeartbeatEvery: *heartbeat, PeerTimeout: *peerTimeout}
		if err := f.Start(); err != nil {
			return err
		}
		defer f.Close()
		if *control != "" {
			// The bound control address goes to stdout, as serve's does,
			// so `banger drain` can be pointed at a ":0" port.
			fmt.Printf("fleet control on %s\n", f.Addr())
		}
		res, err = f.Run(ctx, runner, sc, env.Flat)
	} else {
		res, err = runner.RunContext(ctx, sc, env.Flat)
	}
	if err != nil {
		return err
	}
	st, err := res.Trace.Summarize(sc.Machine.NumPE())
	if err != nil {
		return err
	}
	if len(addrs) > 0 {
		fmt.Printf("ran %d tasks (+%d duplicates) on %d PEs across %d workers in %v (%d bytes on the wire)\n",
			st.TasksRun, st.DupsRun, sc.Machine.NumPE(), st.Peers, res.Elapsed, st.WireBytes)
		if st.PeersLost > 0 {
			fmt.Printf("lost %d worker(s) mid-run; recovery completed on the survivors\n", st.PeersLost)
		}
	} else {
		fmt.Printf("ran %d tasks (+%d duplicates) on %d goroutine PEs in %v\n",
			st.TasksRun, st.DupsRun, sc.Machine.NumPE(), res.Elapsed)
	}
	if st.Faults > 0 || st.Retries > 0 || st.Rescheduled > 0 {
		fmt.Printf("survived %d injected faults: %d retries, %d tasks rescheduled by recovery\n",
			st.Faults, st.Retries, st.Rescheduled)
	}
	if *virtual {
		fmt.Printf("virtual makespan %v (schedule predicted %v)\n", res.Trace.Makespan(), sc.Makespan())
	}
	if *chart {
		out, err := gantt.FromTrace(res.Trace, sc.Machine.NumPE(), 72)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}
	for _, line := range res.Printed {
		fmt.Println("  >", line)
	}
	printOutputs(res.Outputs)
	return nil
}

// addrList splits a comma-separated address list, dropping blanks.
func addrList(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// cmdWorker runs a worker daemon: it hosts a share of the processors
// for the fleet runs of "banger run -dist" and "banger serve -fleet".
// The daemon keeps serving runs until interrupted.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9040", "address to listen on (port 0 picks a free one)")
	join := fs.String("join", "", "control address of a running fleet (run -dist -control, or serve); announce this worker for a mid-run elastic join")
	quiet := fs.Bool("quiet", false, "suppress per-run log lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *quiet {
		logLevel.Set(slog.LevelInfo)
	}
	return wire.ServeWorker(ctx, wire.TCP(), *listen, wire.WorkerOptions{}, func(bound string) {
		// The bound address goes to stdout so scripts (and the
		// integration tests) can pick up a ":0" port.
		fmt.Printf("listening on %s\n", bound)
		if *join != "" {
			// Keep announcing for the daemon's whole life: before the
			// fleet is up the dial fails quietly, once a member the
			// announce re-offers the worker to the runs in flight, and
			// after a drain the next announce re-enters the fleet.
			// A tight cadence matters: a run only takes a joiner in
			// while it has dead processors and live work to hand over,
			// so a slow loop can miss the window a recovery opens.
			go wire.AnnounceLoop(ctx, wire.TCP(), *join, bound, 500*time.Millisecond)
		}
	})
}

// cmdDrain asks a running fleet (via its -control listener) to
// gracefully evacuate one worker: the worker finishes in-flight slots,
// hands its state over, and departs without triggering crash recovery.
func cmdDrain(args []string) error {
	fs := flag.NewFlagSet("drain", flag.ExitOnError)
	control := fs.String("control", "", "the run's control address (banger run -dist -control ...)")
	worker := fs.Int("worker", -1, "worker index to drain: the fleet's N-th member in sorted address order (the worker=N of a -dist run's log records)")
	addr := fs.String("addr", "", "worker listen address to drain (alternative to -worker)")
	timeout := fs.Duration("timeout", 30*time.Second, "give up if the drain has not completed in this long")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *control == "" {
		return fmt.Errorf("drain: -control is required")
	}
	if (*worker < 0) == (*addr == "") {
		return fmt.Errorf("drain: name the worker with exactly one of -worker or -addr")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := wire.Drain(ctx, wire.TCP(), *control, *worker, *addr); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if *addr != "" {
		fmt.Printf("worker %s drained\n", *addr)
	} else {
		fmt.Printf("worker %d drained\n", *worker)
	}
	return nil
}

// printOutputs prints an environment's bindings sorted by name.
func printOutputs(outputs pits.Env) {
	keys := make([]string, 0, len(outputs))
	for k := range outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("outputs:")
	for _, k := range keys {
		fmt.Printf("  %s = %s\n", k, outputs[k])
	}
}

func cmdCalc(args []string) error {
	fs := flag.NewFlagSet("calc", flag.ExitOnError)
	proj := fs.String("project", "newton-sqrt", "project")
	task := fs.String("task", "sqrt", "task id in the flattened design")
	run := fs.Bool("run", true, "press RUN for instant feedback")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	panel, err := env.CalculatorFor(graph.NodeID(*task))
	if err != nil {
		return err
	}
	if *run {
		if err := panel.Press("RUN"); err != nil {
			fmt.Fprintln(os.Stderr, "RUN:", err)
		}
	}
	fmt.Print(calc.Render(panel))
	return nil
}

func cmdCodegen(args []string) error {
	fs := flag.NewFlagSet("codegen", flag.ExitOnError)
	proj, alg := projectFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	env, err := openEnv(*proj)
	if err != nil {
		return err
	}
	sc, err := env.Schedule(*alg)
	if err != nil {
		return err
	}
	src, err := env.GenerateCode(sc)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(src)
		return nil
	}
	if err := os.WriteFile(*out, []byte(src), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", *out)
	return nil
}

func cmdDemo(args []string) error {
	fmt.Println("Banger demo: the paper's LU decomposition example, end to end.")
	env, err := core.OpenBuiltin("lu3x3")
	if err != nil {
		return err
	}
	fmt.Println("\n--- Step 1: the PITL design (Figure 1) ---")
	fmt.Print(env.Project.Design.ASCII())
	fmt.Println("\n--- Step 2: the target machine ---")
	fmt.Println(env.Project.Machine)
	fmt.Println("\n--- Step 3: one PITS task through the calculator (Figure 4 metaphor) ---")
	panel, err := env.CalculatorFor("fl21")
	if err != nil {
		return err
	}
	if err := panel.Press("RUN"); err != nil {
		return err
	}
	fmt.Print(calc.Render(panel))
	fmt.Println("\n--- Step 4: schedule and predict (Figure 3) ---")
	sc, err := env.Schedule("mh")
	if err != nil {
		return err
	}
	fmt.Print(gantt.Chart(sc, 72))
	pts, err := env.SpeedupCurve("mh", []int{0, 1, 2, 3})
	if err != nil {
		return err
	}
	fmt.Print(gantt.Speedup(pts, 8))
	fmt.Println("\n--- Step 5: run it for real ---")
	res, err := env.Run(sc)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(res.Outputs))
	for k := range res.Outputs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %s = %s\n", k, res.Outputs[k])
	}
	fmt.Println("\n(x = [1, 2, 3] solves the built-in system Ax=b.)")
	return nil
}
