package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/conform"
	"repro/internal/machine"
)

// cmdConform runs the differential conformance harness: seeded random
// cases through the analytic simulator, the virtual-time runner, and
// the two distributed backends, cross-checking every oracle; or, with
// -repro, replays a previously written repro directory.
func cmdConform(args []string) error {
	fs := flag.NewFlagSet("conform", flag.ExitOnError)
	seeds := fs.Int64("seeds", 25, "number of consecutive seeds to run")
	start := fs.Int64("start", 0, "first seed")
	jobs := fs.Int("jobs", 4, "cases run concurrently")
	out := fs.String("out", "", "directory for repro dirs of failing cases")
	skew := fs.Int64("skew-comm", 0, "µs added to the runner engine's message startup (deliberate model skew; expect divergences)")
	budget := fs.Int("shrink-budget", 0, "max re-executions while minimizing a failure (0 = default)")
	multi := fs.Int64("multi", 0, "also run the multi-run concurrency scenario for every Nth seed (0 = off)")
	repro := fs.String("repro", "", "replay a repro directory instead of sweeping")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// The engines' fleets and daemons run in this process with faults
	// injected on purpose; what they found is the report on stdout, so
	// their slog records stay below the handler's threshold.
	logLevel.Set(slog.LevelError + 1)

	if *repro != "" {
		rep, err := conform.Replay(ctx, *repro)
		if err != nil {
			return err
		}
		fmt.Printf("replayed %s: seed=%d heuristic=%s machine=%s\n",
			*repro, rep.Case.Seed, rep.Case.Heuristic, rep.Case.Machine.Name)
		if !rep.Failed() {
			fmt.Println("PASS: all oracles held")
			return nil
		}
		fmt.Printf("FAIL: %d divergence(s)\n", len(rep.Divergences))
		for _, d := range rep.Divergences {
			fmt.Printf("  %s\n", d)
		}
		return fmt.Errorf("repro still diverges")
	}

	res := conform.Sweep(ctx, conform.SweepOptions{
		Start: *start, Seeds: *seeds, Jobs: *jobs,
		OutDir:       *out,
		SkewComm:     machine.Time(*skew),
		ShrinkBudget: *budget,
		MultiEvery:   *multi,
		Log: func(format string, a ...any) {
			fmt.Printf(format+"\n", a...)
		},
	})
	fmt.Printf("conform: %d case(s), %d lost case(s), %d multi scenario(s), %d divergence(s), %d harness error(s)\n",
		res.Ran, res.LostRan, res.MultiRan, len(res.Failures)+len(res.MultiFailures), len(res.Errors))
	for _, err := range res.Errors {
		fmt.Printf("  error: %v\n", err)
	}
	for i, rep := range res.Failures {
		fmt.Printf("  seed %d: %d divergence(s) after minimization\n",
			rep.Case.Seed, len(rep.Divergences))
		for _, d := range rep.Divergences {
			fmt.Printf("    %s\n", d)
		}
		if res.ReproDirs[i] != "" {
			fmt.Printf("    repro: %s (replay: banger conform -repro %s)\n",
				res.ReproDirs[i], res.ReproDirs[i])
		}
	}
	for i, rep := range res.MultiFailures {
		fmt.Printf("  multi seed %d: %d divergence(s) after minimization (%d concurrent runs)\n",
			rep.Multi.Seed, len(rep.Divergences), len(rep.Multi.Cases))
		for _, d := range rep.Divergences {
			fmt.Printf("    %s\n", d)
		}
		if res.MultiDirs[i] != "" {
			fmt.Printf("    repro: %s (sub-cases replay solo: banger conform -repro %s/case-K)\n",
				res.MultiDirs[i], res.MultiDirs[i])
		}
	}
	if res.Failed() {
		return fmt.Errorf("%d of %d cases diverged",
			len(res.Failures)+len(res.MultiFailures), res.Ran+res.LostRan+res.MultiRan)
	}
	return nil
}
