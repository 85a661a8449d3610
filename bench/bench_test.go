package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// TestMain lets the suite's child processes re-enter main: runSuite
// re-executes os.Executable(), which under `go test` is this binary.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_TEST_AS_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	a, err := generate(7, smokeTopo, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := generate(7, smokeTopo, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := generate(8, smokeTopo, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.bodies {
		if !bytes.Equal(a.bodies[i], b.bodies[i]) {
			t.Fatalf("seed 7 body %d differs between two generations", i)
		}
	}
	if bytes.Equal(a.bodies[0], c.bodies[0]) {
		t.Fatal("seeds 7 and 8 generate the same body")
	}
	// One weight set, varying data: the bodies differ but share a shape.
	d, err := generate(7, smokeTopo, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.bodies) != inputPool || bytes.Equal(d.bodies[0], d.bodies[1]) {
		t.Fatalf("want %d distinct bodies over the input pool, got %d", inputPool, len(d.bodies))
	}
}

// The predict-miss stream only misses if every variant has its own
// fingerprint. Fingerprinting the weights directly is fast enough to
// cover all 640; a sample is also decoded from its body, the way the
// server sees it, and must fingerprint the same.
func TestMissVariantsHaveDistinctFingerprints(t *testing.T) {
	in, err := generate(1, smokeTopo, missVariants)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := in.design.Flatten()
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range flat.Graph.Tasks() {
		if n.ID != in.design.Tasks()[i].ID {
			t.Fatalf("flattening reorders tasks: %s at %d", n.ID, i)
		}
	}
	seen := map[string]int{}
	byWeights := make([]string, missVariants)
	for v, w := range in.weights {
		setWeights(flat.Graph, w)
		key := sched.Fingerprint(flat, in.machine, "mh")
		if prev, dup := seen[key]; dup {
			t.Fatalf("variants %d and %d share a fingerprint", prev, v)
		}
		seen[key], byWeights[v] = v, key
	}
	for _, v := range []int{0, 1, missVariants / 2, missVariants - 1} {
		p, env, err := decodeOpen(in.bodies[v])
		if err != nil {
			t.Fatal(err)
		}
		if got := sched.Fingerprint(env.Flat, p.Machine, "mh"); got != byWeights[v] {
			t.Errorf("variant %d: its body fingerprints differently from its weights", v)
		}
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := median(ten); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if v, beyond := percentile(ten, 0.90); v != 9 || beyond != 1 {
		t.Errorf("p90 = %v with %d beyond, want 9 with 1", v, beyond)
	}
	if v, beyond := percentile(ten, 0.50); v != 5 || beyond != 5 {
		t.Errorf("p50 = %v with %d beyond, want 5 with 5", v, beyond)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("two-sample quartiles = %v, %v, want 0.75, 2.25", q1, q3)
	}
	if got := spread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 || spread([]float64{4}) != 0 {
		t.Errorf("a single sample must have no spread")
	}
}

// doc builds a document in which every workload reads base on every
// metric, except the overrides given per metric name.
func doc(runs int, base float64, override map[string][]float64) *document {
	d := &document{Schema: 1, Seed: 1, Seconds: 20}
	for i := 0; i < runs; i++ {
		run := suiteRun{}
		for _, w := range workloads {
			wr := workloadResult{EndToEnd: map[string]measured{}, PerLayer: map[string]measured{}}
			for _, def := range endToEnd {
				wr.EndToEnd[def.name] = measured{base, def.unit}
				if v, ok := override[def.name]; ok {
					wr.EndToEnd[def.name] = measured{v[i], def.unit}
				}
			}
			for _, def := range perLayer {
				wr.PerLayer[def.name] = measured{base, def.unit}
				if v, ok := override[def.name]; ok {
					wr.PerLayer[def.name] = measured{v[i], def.unit}
				}
			}
			run[w.name] = wr
		}
		d.Runs = append(d.Runs, run)
	}
	return d
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d *document) string {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", doc(3, 100, nil))
	for _, tc := range []struct {
		name     string
		override map[string][]float64
		wantBad  bool
		wantLine string // a row that must appear
	}{
		{"unchanged", nil, false, "latency_p50_ms"},
		{"improved", map[string][]float64{"latency_p50_ms": {70, 71, 72}}, false, "0.710   0.25  ok"},
		{"regressed", map[string][]float64{"latency_p50_ms": {130, 131, 132}}, true, "regressed"},
		{"higher is better", map[string][]float64{"throughput_rps": {70, 71, 72}}, true, "regressed"},
		{"within bound", map[string][]float64{"latency_p50_ms": {105, 106, 107}}, false, "1.060   0.25  ok"},
		{"noisy", map[string][]float64{"latency_p50_ms": {60, 110, 160}}, false, "unresolved"},
		{"noisy but every run better", map[string][]float64{"latency_p50_ms": {20, 50, 80}}, false, "0.500   0.25  ok"},
		{"count changed", map[string][]float64{"sched.makespan_us": {100, 100, 101}}, true, "count changed"},
		{"timing layer moved", map[string][]float64{"sched.schedule_ms": {300, 300, 300}}, false, "latency_p50_ms"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			bad, err := compareFiles(old, write("new.json", doc(3, 100, tc.override)), &out)
			if err != nil {
				t.Fatal(err)
			}
			if bad != tc.wantBad {
				t.Errorf("regressed = %v, want %v\n%s", bad, tc.wantBad, out.String())
			}
			if !strings.Contains(out.String(), tc.wantLine) {
				t.Errorf("no row containing %q in\n%s", tc.wantLine, out.String())
			}
		})
	}
}

// BENCHMARK.json at the repository root is the contract the driver
// reads; the tables in this package are what the program prints. They
// must name the same workloads and metrics with the same units,
// directions and bounds.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the bench directory:", err)
	}
	var contract struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if contract.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default window is %d", contract.RunSeconds, defaultSeconds)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c := contract.Workloads[i]; c.Name != w.name || c.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, c.Name, c.Why, w.name, w.why)
		}
	}
	if len(contract.EndToEnd) != len(endToEnd) || len(contract.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d",
			len(contract.EndToEnd), len(contract.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if c := contract.EndToEnd[i]; c.Name != d.name || c.Unit != d.unit || c.Better != d.better || c.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, c, d)
		}
	}
	for i, d := range perLayer {
		if c := contract.PerLayer[i]; c.Name != d.name || c.Unit != d.unit || c.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, c, d)
		}
	}
}

// TestSmokeSuite runs the whole suite end to end in smoke mode: every
// workload untraced and traced in child processes, every reply checked
// by the oracle, every metric present, spans on disk.
func TestSmokeSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and worker daemons")
	}
	t.Setenv("BENCH_TEST_AS_MAIN", "1")
	dir := t.TempDir()
	var log strings.Builder
	ok, err := runSuite(config{seed: 3, seconds: 0.5, smoke: true, outDir: dir}, 1, &log)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !ok {
		t.Fatalf("the oracle rejected replies:\n%s", log.String())
	}
	d, err := loadDocument(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := d.Runs[0][w.name]
		if wr.Attempted == 0 || wr.Failed != 0 {
			t.Errorf("%s: %d attempted, %d failed", w.name, wr.Attempted, wr.Failed)
		}
		for _, def := range endToEnd {
			if m, ok := wr.EndToEnd[def.name]; !ok || m.Value <= 0 || m.Unit != def.unit {
				t.Errorf("%s: end-to-end %s = %+v", w.name, def.name, m)
			}
		}
		for _, def := range perLayer {
			if _, ok := wr.PerLayer[def.name]; !ok {
				t.Errorf("%s: per-layer %s missing", w.name, def.name)
			}
		}
		wantHit := 1.0
		if w.variants > 1 {
			wantHit = 0
		}
		if got := wr.PerLayer["serve.cache_hit_ratio"].Value; got != wantHit {
			t.Errorf("%s: cache hit ratio %v, want %v", w.name, got, wantHit)
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".trace.json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	// The same document compared with itself has nothing to report.
	var out strings.Builder
	path := filepath.Join(dir, "result.json")
	if bad, err := compareFiles(path, path, &out); err != nil || bad {
		t.Errorf("self-compare: regressed=%v err=%v\n%s", bad, err, out.String())
	}
}
