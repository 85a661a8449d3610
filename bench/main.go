// Command bench is the repository's one request-path benchmark: it
// starts a real serve.Server behind a loopback HTTP listener, drives
// four named closed-loop workloads against it, checks every reply
// against an independent oracle and prints every metric by name and
// unit. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
)

// defaultSeconds is the measured window of one workload run, the
// run_seconds of BENCHMARK.json.
const defaultSeconds = 20

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload in this process and print one JSON result line")
		seed    = flag.Int64("seed", 1, "input seed: picks task weights and input values, never the shape")
		seconds = flag.Float64("seconds", 0, "measured window per workload (default 20, or 1 with -smoke)")
		traced  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
		smoke   = flag.Bool("smoke", false, "one-second windows on ring:16 in place of ring:128")
		repeat  = flag.Int("repeat", 1, "full invocations back to back; medians and quartiles are reported")
		out     = flag.String("out", "bench/out", "directory for result.json and the <workload>.trace.json spans")
		compare = flag.Bool("compare", false, "compare two result documents: bench -compare OLD.json NEW.json")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, smoke: *smoke, outDir: *out}
	if cfg.seconds <= 0 {
		cfg.seconds = defaultSeconds
		if cfg.smoke {
			cfg.seconds = 1
		}
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: bench -compare OLD.json NEW.json"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
	case *name != "":
		w, ok := workloadByName(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		res, err := runWorkload(w, cfg, *traced == 1, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Println(res.line())
		if !res.Correct {
			os.Exit(1)
		}
	default:
		ok, err := runSuite(cfg, *repeat, os.Stdout)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
