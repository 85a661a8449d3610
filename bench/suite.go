package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// document is what a suite run writes to <out>/result.json and what
// -compare reads: every metric of every workload, once per invocation.
type document struct {
	Schema  int        `json:"schema"`
	Seed    int64      `json:"seed"`
	Seconds float64    `json:"seconds"`
	Smoke   bool       `json:"smoke"`
	Go      string     `json:"go"`
	CPUs    int        `json:"cpus"`
	Runs    []suiteRun `json:"runs"`
}

// suiteRun is one full invocation: all workloads, untraced and traced.
type suiteRun map[string]workloadResult

type workloadResult struct {
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]measured `json:"end_to_end"`
	PerLayer  map[string]measured `json:"per_layer"`
}

// samples collects one metric's value over every run of the document.
func (d *document) samples(workload, metric string) []float64 {
	var v []float64
	for _, run := range d.Runs {
		wr, ok := run[workload]
		if !ok {
			continue
		}
		if m, ok := wr.EndToEnd[metric]; ok {
			v = append(v, m.Value)
		} else if m, ok := wr.PerLayer[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// child re-executes this binary for one workload, so that peak RSS,
// heap and GC state never leak from one workload into the next. It
// passes the child's readable lines through and parses its last line.
func child(w workload, cfg config, traced int, log io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(traced), "-out", cfg.outDir}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a child that found failures exits 1 but still prints its result
	lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	io.WriteString(log, strings.Join(lines[:len(lines)-1], "\n")+"\n")
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, fmt.Errorf("%s: no result line (%v): %v", w.name, err, runErr)
	}
	return res, nil
}

// runSuite runs every workload, untraced then traced, each in its own
// process, repeat times over; prints every metric by name and unit and
// writes the document. It reports whether every reply was correct.
func runSuite(cfg config, repeat int, log io.Writer) (bool, error) {
	doc := document{Schema: 1, Seed: cfg.seed, Seconds: cfg.seconds, Smoke: cfg.smoke,
		Go: runtime.Version(), CPUs: runtime.NumCPU()}
	ok := true
	for i := 0; i < repeat; i++ {
		run := suiteRun{}
		for _, w := range workloads {
			e2e, err := child(w, cfg, 0, log)
			if err != nil {
				return false, err
			}
			layers, err := child(w, cfg, 1, log)
			if err != nil {
				return false, err
			}
			ok = ok && e2e.Correct && layers.Correct
			run[w.name] = workloadResult{
				Attempted: e2e.Attempted + layers.Attempted, Failed: e2e.Failed + layers.Failed,
				EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
			}
		}
		doc.Runs = append(doc.Runs, run)
	}
	if repeat > 1 {
		doc.summarize(log)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return ok, err
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return ok, err
	}
	path := filepath.Join(cfg.outDir, "result.json")
	fmt.Fprintf(log, "wrote %s (%d invocations); spans in %s/<workload>.trace.json\n", path, repeat, cfg.outDir)
	return ok, os.WriteFile(path, data, 0o644)
}

// summarize prints each metric's median and quartiles over the runs.
func (d *document) summarize(log io.Writer) {
	for _, w := range workloads {
		fmt.Fprintf(log, "%s: median [q1 .. q3] over %d invocations\n", w.name, len(d.Runs))
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, def := range defs {
				v := d.samples(w.name, def.name)
				q1, q3 := quartiles(v)
				fmt.Fprintf(log, "  %-30s %14.4f [%.4f .. %.4f] %s, spread %.1f%%\n",
					def.name, median(v), q1, q3, def.unit, 100*spread(v))
			}
		}
	}
}
