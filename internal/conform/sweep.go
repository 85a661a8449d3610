package conform

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/machine"
)

// SweepOptions configures a deterministic multi-seed sweep.
type SweepOptions struct {
	// Start is the first seed; Seeds is how many consecutive seeds to
	// run. The sweep's outcome is a pure function of (Start, Seeds,
	// SkewComm) — job count and scheduling do not affect it.
	Start, Seeds int64
	// Jobs is the number of cases run concurrently (min 1). Each case
	// already runs many goroutines (workers, processors), so a small
	// number goes a long way.
	Jobs int
	// OutDir, when non-empty, receives one repro directory per failing
	// case, named seed-<N>.
	OutDir string
	// SkewComm is applied to every generated case (the deliberate
	// model-divergence hook; zero in normal sweeps).
	SkewComm machine.Time
	// ShrinkBudget bounds minimization re-executions per failure
	// (0 = 40).
	ShrinkBudget int
	// MultiEvery, when positive, also runs the multi-run concurrency
	// scenario (GenerateMulti/RunMulti: several cases multiplexed on one
	// shared fleet) for every seed divisible by it. Zero disables the
	// multi leg. Multi scenarios skip SkewComm: the skew hook targets
	// the trace-vs-sim oracle, which the isolation oracle does not use.
	MultiEvery int64
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// lostEvery picks the seeds whose Lost case a sweep runs too
// (GenerateLost: one copy dropped with Retry off, which every engine
// must report as the same deadlock): a small seeded set, not a knob.
const lostEvery = 5

// SweepResult summarises a sweep.
type SweepResult struct {
	Ran       int
	LostRan   int       // Lost cases run, besides Ran
	Failures  []*Report // minimized reports, ordered by seed (a seed's Lost case after it)
	ReproDirs []string  // where each failure was written (parallel to Failures; "" when OutDir unset)
	Errors    []error   // harness errors (generation/setup), not divergences

	MultiRan      int
	MultiFailures []*MultiReport // minimized multi-run reports, ordered by seed
	MultiDirs     []string       // parallel to MultiFailures; "" when OutDir unset
}

// Failed reports whether any case diverged or the harness errored.
func (r *SweepResult) Failed() bool {
	return len(r.Failures) > 0 || len(r.MultiFailures) > 0 || len(r.Errors) > 0
}

// Sweep generates and runs cases for opt.Seeds consecutive seeds,
// minimizing every divergence it finds and (optionally) writing repro
// directories. The result is deterministic for a given option set.
func Sweep(ctx context.Context, opt SweepOptions) *SweepResult {
	jobs := opt.Jobs
	if jobs < 1 {
		jobs = 1
	}
	budget := opt.ShrinkBudget
	if budget <= 0 {
		budget = 40
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}

	type outcome struct {
		seed     int64
		reps     []*Report
		dirs     []string
		err      error
		lostRan  bool
		multiRan bool
		mrep     *MultiReport
		mdir     string
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		wg       sync.WaitGroup
	)
	sem := make(chan struct{}, jobs)
	for i := int64(0); i < opt.Seeds; i++ {
		seed := opt.Start + i
		wg.Add(1)
		sem <- struct{}{}
		go func(seed int64) {
			defer wg.Done()
			defer func() { <-sem }()
			o := outcome{seed: seed}
			defer func() {
				mu.Lock()
				outcomes = append(outcomes, o)
				mu.Unlock()
			}()
			// run runs one case, and minimizes and writes it out if it
			// diverges; name tells the seed's cases apart.
			run := func(name string, c *Case) error {
				rep, err := RunCase(ctx, c)
				if err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				if !rep.Failed() {
					logf("%s: ok (%d tasks, %s, %s)", name,
						len(c.Design.Tasks()), c.Heuristic, c.Machine.Name)
					return nil
				}
				logf("%s: DIVERGED (%d oracle hits), minimizing...", name, len(rep.Divergences))
				_, min := Shrink(ctx, rep, budget)
				dir := ""
				if opt.OutDir != "" {
					dir = filepath.Join(opt.OutDir, strings.ReplaceAll(name, " ", "-"))
					if err := WriteRepro(dir, min); err != nil {
						return fmt.Errorf("%s: writing repro: %w", name, err)
					}
					logf("%s: repro written to %s", name, dir)
				}
				o.reps, o.dirs = append(o.reps, min), append(o.dirs, dir)
				return nil
			}
			c, err := Generate(seed)
			if err != nil {
				o.err = fmt.Errorf("seed %d: generate: %w", seed, err)
				return
			}
			c.SkewComm = opt.SkewComm
			if o.err = run(fmt.Sprintf("seed %d", seed), c); o.err != nil {
				return
			}
			if seed%lostEvery == 0 {
				lost, err := GenerateLost(seed)
				if err != nil {
					o.err = fmt.Errorf("seed %d lost: generate: %w", seed, err)
					return
				}
				if lost != nil {
					o.lostRan = true
					if o.err = run(fmt.Sprintf("seed %d lost", seed), lost); o.err != nil {
						return
					}
				}
			}

			if opt.MultiEvery <= 0 || seed%opt.MultiEvery != 0 {
				return
			}
			mc, err := GenerateMulti(seed)
			if err != nil {
				o.err = fmt.Errorf("multi seed %d: generate: %w", seed, err)
				return
			}
			o.multiRan = true
			mrep, err := RunMulti(ctx, mc)
			if err != nil {
				o.err = fmt.Errorf("multi seed %d: %w", seed, err)
				return
			}
			if !mrep.Failed() {
				logf("seed %d: multi ok (%d concurrent runs)", seed, len(mc.Cases))
				return
			}
			logf("seed %d: multi DIVERGED (%d oracle hits), minimizing...", seed, len(mrep.Divergences))
			_, mmin := ShrinkMulti(ctx, mrep, budget)
			o.mrep = mmin
			if opt.OutDir != "" {
				dir := filepath.Join(opt.OutDir, fmt.Sprintf("seed-%d-multi", seed))
				if err := WriteMultiRepro(dir, mmin); err != nil {
					o.err = fmt.Errorf("multi seed %d: writing repro: %w", seed, err)
					return
				}
				o.mdir = dir
				logf("seed %d: multi repro written to %s", seed, dir)
			}
		}(seed)
	}
	wg.Wait()

	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].seed < outcomes[j].seed })
	res := &SweepResult{Ran: int(opt.Seeds)}
	for _, o := range outcomes {
		if o.err != nil {
			res.Errors = append(res.Errors, o.err)
		}
		res.Failures = append(res.Failures, o.reps...)
		res.ReproDirs = append(res.ReproDirs, o.dirs...)
		if o.lostRan {
			res.LostRan++
		}
		if o.multiRan {
			res.MultiRan++
		}
		if o.mrep != nil {
			res.MultiFailures = append(res.MultiFailures, o.mrep)
			res.MultiDirs = append(res.MultiDirs, o.mdir)
		}
	}
	return res
}
