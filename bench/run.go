package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// An untraced run sets the stack up at least minSetups times, and
// again until setupBudget is spent or maxSetups is reached, and
// reports the median, so one slow start does not read as a regression.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 3 * time.Second
)

// measured is one metric as printed.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

func latenciesMS(replies []reply) []float64 {
	ms := make([]float64, len(replies))
	for i, r := range replies {
		ms[i] = float64(r.latency) / float64(time.Millisecond)
	}
	return ms
}

// runWorkload runs one workload in this process: untraced for the
// end-to-end metrics, or untraced then traced for the per-layer ones.
// Human-readable lines go to log; the caller prints the result.
func runWorkload(w workload, cfg config, traced bool, log io.Writer) (result, error) {
	res := result{Metrics: map[string]measured{}}
	var st *stack
	var setups []float64
	for began := time.Now(); ; {
		t0 := time.Now()
		var err error
		if st, err = setup(w, cfg); err != nil {
			return res, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Set-up time is an end-to-end metric: a traced run sets up once.
		n := len(setups)
		if traced || n == maxSetups || (n >= minSetups && (cfg.smoke || time.Since(began) > setupBudget)) {
			break
		}
		st.close()
		runtime.GC() // the next set-up starts from the same heap as the first
	}
	defer st.close()

	window := time.Duration(cfg.seconds * float64(time.Second))
	if traced {
		window /= 2 // the replays and probes take the other half
	}
	win := st.measure(window)

	orc, err := newOracle(st)
	if err != nil {
		return res, err
	}
	var failures []error
	bad := map[int64]bool{}
	for _, r := range win.replies {
		if err := orc.check(r); err != nil {
			failures = append(failures, err)
			bad[r.index] = true
		}
	}
	res.Attempted = len(win.replies)

	if traced {
		vals, more := runTraced(st, orc, cfg, win)
		failures = append(failures, more...)
		res.Attempted += 2 * st.w.replay
		for _, d := range perLayer {
			res.Metrics[d.name] = measured{vals[d.name], d.unit}
		}
	} else {
		vals, beyond, err := endToEndValues(win, bad)
		if err != nil {
			return res, err
		}
		vals["setup_s"] = median(setups)
		for _, d := range endToEnd {
			res.Metrics[d.name] = measured{vals[d.name], d.unit}
		}
		fmt.Fprintf(log, "%-14s %d requests by %d closed-loop clients, %d set-ups; rates and percentiles from the best %d of %d slices, %d samples beyond p90\n",
			w.name, len(win.replies), st.w.clients, len(setups), bestSlices, slices, beyond)
	}

	res.Failed = len(failures)
	res.Correct = res.Failed == 0
	for i, err := range failures {
		if i == 5 {
			fmt.Fprintf(log, "  ... and %d more failures\n", len(failures)-i)
			break
		}
		fmt.Fprintf(log, "  FAILED %v\n", err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(log, "  %-30s %14.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(log, "  %-30s %14.4f ratio (%d of %d)\n", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	return res, nil
}

func (r result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of floats and strings always marshals
	}
	return string(b)
}

// endToEndValues turns a window into the end-to-end metrics. Rates and
// percentiles come from the window's best slices, pooled; allocation
// and resident set, which interference does not move, from all of it.
// It also returns how many samples lie beyond the p90 it reports.
func endToEndValues(win window, bad map[int64]bool) (map[string]float64, int, error) {
	all := win.slice(bad)
	sort.SliceStable(all, func(i, j int) bool {
		return float64(all[i].good)/all[i].seconds > float64(all[j].good)/all[j].seconds
	})
	var best sliceStats
	for _, sl := range all[:min(bestSlices, len(all))] {
		best.latencyMS = append(best.latencyMS, sl.latencyMS...)
		best.good += sl.good
		best.seconds += sl.seconds
		best.cpu += sl.cpu
	}
	if len(best.latencyMS) == 0 {
		return nil, 0, fmt.Errorf("no request completed inside the window")
	}
	p90, beyond := percentile(best.latencyMS, 0.90)
	first, last := win.marks[0], win.marks[len(win.marks)-1]
	return map[string]float64{
		"latency_p50_ms":   median(best.latencyMS),
		"latency_p90_ms":   p90,
		"throughput_rps":   float64(best.good) / best.seconds,
		"cpu_ms_per_req":   float64(best.cpu) / float64(time.Millisecond) / float64(len(best.latencyMS)),
		"alloc_mb_per_req": float64(last.alloc-first.alloc) / (1 << 20) / float64(len(win.replies)),
		"rss_mb":           median(win.rss),
	}, beyond, nil
}
