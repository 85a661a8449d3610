package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/wire"
)

// testProject builds a small diamond project. The work and words
// arguments perturb one execution and one communication weight (same
// shape, different schedule); the input value varies the data without
// changing the fingerprint.
func testProject(t testing.TB, work, words int64, input float64) *project.Project {
	t.Helper()
	g := graph.New("diamond")
	g.MustAddStorage("IN", "x")
	a := g.MustAddTask("a", "a", work)
	a.Routine = "u = x + 1"
	b := g.MustAddTask("b", "b", 10)
	b.Routine = "v = u * 2"
	c := g.MustAddTask("c", "c", 10)
	c.Routine = "w = u + 3"
	d := g.MustAddTask("d", "d", 10)
	d.Routine = "out = v + w\nprint \"got \", out"
	g.MustConnect("IN", "a", "x", 1)
	g.MustConnect("a", "b", "u", words)
	g.MustConnect("a", "c", "u", 1)
	g.MustConnect("b", "d", "v", 1)
	g.MustConnect("c", "d", "w", 1)
	g.MustAddStorage("OUT", "out")
	g.MustConnect("d", "OUT", "out", 1)

	topo, err := machine.ParseTopology("hypercube:2")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New("hypercube:2", topo,
		machine.Params{ProcSpeed: 1, TaskStartup: 1, MsgStartup: 5, WordTime: 1})
	if err != nil {
		t.Fatal(err)
	}
	return &project.Project{Name: "diamond", Design: g, Machine: m,
		Inputs: pits.Env{"x": pits.Num(input)}}
}

// postRun submits a project and decodes the response.
func postRun(t testing.TB, url string, p *project.Project, query string, header map[string]string) (*RunResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/run"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var rr RunResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return &rr, resp
}

// postAsync submits a project from a goroutine of its own and delivers
// the response status (0 if the request failed).
func postAsync(t *testing.T, url string, p *project.Project) <-chan int {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	code := make(chan int, 1)
	go func() {
		resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

func scrapeStats(t testing.TB, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestServeScheduleMode: ?mode=schedule maps the design and reports
// the prediction without executing — and shares the schedule cache
// with run mode, so a prediction warms the cache for the run.
func TestServeScheduleMode(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "?mode=schedule", nil)
	if rr == nil {
		t.Fatalf("schedule-mode submission rejected: %d", resp.StatusCode)
	}
	if rr.Cache != "miss" {
		t.Fatalf("first prediction cache = %q, want miss", rr.Cache)
	}
	if rr.MakespanUS <= 0 || rr.PEs <= 0 || rr.Speedup <= 0 {
		t.Fatalf("prediction fields = %+v", rr)
	}
	if len(rr.Outputs) != 0 || len(rr.Printed) != 0 {
		t.Fatalf("schedule mode executed: outputs=%v printed=%v", rr.Outputs, rr.Printed)
	}

	// The prediction warmed the cache; a real run of the same shape
	// hits, executes, and agrees on the makespan's schedule.
	rr2, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
	if rr2.Cache != "hit" {
		t.Fatalf("run after prediction cache = %q, want hit", rr2.Cache)
	}
	if got := rr2.Outputs["out"]; got != "15" {
		t.Fatalf("out = %q, want 15", got)
	}

	// Stats counted both, and nothing executed for the prediction.
	st := scrapeStats(t, ts.URL)
	if st.Runs.Total != 2 || st.Runs.Failed != 0 {
		t.Fatalf("runs = %+v", st.Runs)
	}

	if _, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "?mode=bogus", nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus mode status = %d, want 400", resp.StatusCode)
	}
}

// TestServePredictionCompilesNoRun: the runner parks its compiled era on
// the schedule at the schedule's first run, never before, so a server
// that only predicts carries none — and the first run of a cached
// schedule leaves exactly one for the runs after it.
func TestServePredictionCompilesNoRun(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	cached := func() *sched.Schedule {
		t.Helper()
		if n := s.cache.order.Len(); n != 1 {
			t.Fatalf("%d cache entries, want 1", n)
		}
		return s.cache.order.Front().Value.(*cachePair).entry.sc
	}
	for i := 0; i < 10; i++ {
		if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "?mode=schedule", nil); rr == nil {
			t.Fatalf("prediction %d rejected: %d", i, resp.StatusCode)
		}
	}
	if d := cached().Derived(); d != nil {
		t.Fatalf("after 10 predictions the cached schedule carries a %T", d)
	}
	postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
	era := cached().Derived()
	if era == nil {
		t.Fatal("the first run parked nothing on the cached schedule")
	}
	if rr, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr.Cache != "hit" || rr.Outputs["out"] != "15" {
		t.Fatalf("second run: %+v", rr)
	}
	if cached().Derived() != era {
		t.Error("the second run compiled its own era")
	}
}

func TestServeRunAndCache(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// First submission: a miss that pays scheduling.
	rr1, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
	if rr1 == nil {
		t.Fatalf("run rejected: %d", resp.StatusCode)
	}
	if rr1.Cache != "miss" {
		t.Fatalf("first run cache = %q, want miss", rr1.Cache)
	}
	if got := rr1.Outputs["out"]; got != "15" {
		t.Fatalf("out = %q, want 15 ((3+1)*2 + (3+1)+3)", got)
	}
	if len(rr1.Printed) != 1 || !strings.Contains(rr1.Printed[0], "got") {
		t.Fatalf("printed = %v", rr1.Printed)
	}

	// Same shape, different input: a hit, byte-identical modulo data.
	rr2, _ := postRun(t, ts.URL, testProject(t, 10, 1, 5), "", nil)
	if rr2.Cache != "hit" {
		t.Fatalf("second run cache = %q, want hit", rr2.Cache)
	}
	if got := rr2.Outputs["out"]; got != "21" {
		t.Fatalf("out = %q, want 21 ((5+1)*2 + (5+1)+3)", got)
	}

	// Cache-hit and cache-miss runs of identical submissions must be
	// byte-identical.
	rr3, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
	if rr3.Cache != "hit" {
		t.Fatalf("third run cache = %q, want hit", rr3.Cache)
	}
	if !reflect.DeepEqual(rr3.Outputs, rr1.Outputs) || !reflect.DeepEqual(rr3.Printed, rr1.Printed) {
		t.Fatalf("cache-hit outputs %v/%v differ from cache-miss %v/%v",
			rr3.Outputs, rr3.Printed, rr1.Outputs, rr1.Printed)
	}

	st := scrapeStats(t, ts.URL)
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 || st.Cache.Entries != 1 {
		t.Fatalf("cache stats = %+v, want 2 hits / 1 miss / 1 entry", st.Cache)
	}
	if st.Runs.Total != 3 || st.Runs.Failed != 0 {
		t.Fatalf("run stats = %+v", st.Runs)
	}
	if st.Exec.TasksRun != 12 { // 4 tasks × 3 runs accumulate in the shared block
		t.Fatalf("exec stats tasks = %d, want 12", st.Exec.TasksRun)
	}
}

// TestServeCacheWeightSensitivity pins the collision contract at the
// service level: same shape with different execution or communication
// weights must miss, as must a different algorithm.
func TestServeCacheWeightSensitivity(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, p := range []*project.Project{
		testProject(t, 10, 1, 3), // baseline: miss
		testProject(t, 99, 1, 3), // different exec weight: miss
		testProject(t, 10, 9, 3), // different comm weight: miss
	} {
		rr, resp := postRun(t, ts.URL, p, "", nil)
		if rr == nil {
			t.Fatalf("run %d rejected: %d", i, resp.StatusCode)
		}
		if rr.Cache != "miss" {
			t.Fatalf("run %d cache = %q, want miss", i, rr.Cache)
		}
	}
	// Same design under another algorithm is another schedule.
	if rr, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "?alg=mh", nil); rr.Cache != "miss" {
		t.Fatalf("alg=mh cache = %q, want miss", rr.Cache)
	}
	// And the baseline is still warm.
	if rr, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr.Cache != "hit" {
		t.Fatalf("baseline re-run cache = %q, want hit", rr.Cache)
	}
	if st := scrapeStats(t, ts.URL); st.Cache.Misses != 4 || st.Cache.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 4 misses / 1 hit", st.Cache)
	}
}

func TestServeCacheEviction(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", CacheCap: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	shapes := []int64{10, 20, 30}
	for _, w := range shapes {
		postRun(t, ts.URL, testProject(t, w, 1, 3), "", nil)
	}
	// Three distinct shapes through a two-entry cache: the oldest
	// (work=10) must have been evicted and miss again; the newest two
	// must still hit.
	if rr, _ := postRun(t, ts.URL, testProject(t, 30, 1, 3), "", nil); rr.Cache != "hit" {
		t.Fatalf("newest shape cache = %q, want hit", rr.Cache)
	}
	if rr, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr.Cache != "miss" {
		t.Fatalf("evicted shape cache = %q, want miss", rr.Cache)
	}
	st := scrapeStats(t, ts.URL)
	if st.Cache.Entries != 2 {
		t.Fatalf("entries = %d, want 2 (cap)", st.Cache.Entries)
	}
	if st.Cache.Evictions < 2 {
		t.Fatalf("evictions = %d, want >= 2", st.Cache.Evictions)
	}
}

// TestServeBackpressure: with one execution slot and no waiting room,
// a submission that arrives while the slot is held is rejected with
// 429 and a Retry-After hint.
func TestServeBackpressure(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", MaxConcurrent: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Hold the only execution slot, as a long run would.
	s.sem <- struct{}{}
	rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
	if rr != nil {
		t.Fatal("submission with the slot held should have been rejected")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response is missing Retry-After")
	}
	<-s.sem

	// With the slot free the same submission is served.
	if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr == nil {
		t.Fatalf("submission with a free slot rejected: %d", resp.StatusCode)
	}
	if st := scrapeStats(t, ts.URL); st.Runs.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Runs.Rejected)
	}
}

// TestServeQueueAdmitsThenOverflows: one slot plus one queue seat
// admits a waiter and rejects the one after it.
func TestServeQueueAdmitsThenOverflows(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.sem <- struct{}{} // the slot is busy
	var wg sync.WaitGroup
	wg.Add(1)
	served := make(chan *RunResponse, 1)
	go func() {
		defer wg.Done()
		rr, _ := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
		served <- rr
	}()
	// Wait until the first submission occupies the queue seat.
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.waiting.Load() == 0 {
		t.Fatal("first submission never queued")
	}
	// The queue seat is taken: the next submission overflows.
	if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: rr=%v status=%d, want 429", rr, resp.StatusCode)
	}
	// Freeing the slot serves the queued submission.
	<-s.sem
	wg.Wait()
	if rr := <-served; rr == nil {
		t.Fatal("queued submission was never served")
	}
}

// TestServeTenantCap: one tenant at its in-flight cap is rejected
// while another tenant still gets through.
func TestServeTenantCap(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", TenantCap: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Pin tenant "alpha" at its cap, as a long in-flight run would.
	s.mu.Lock()
	s.tenants["alpha"] = 1
	s.mu.Unlock()

	rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", map[string]string{"X-Tenant": "alpha"})
	if rr != nil || resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("capped tenant: rr=%v status=%d, want 429", rr, resp.StatusCode)
	}
	if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", map[string]string{"X-Tenant": "beta"}); rr == nil {
		t.Fatalf("other tenant rejected: %d", resp.StatusCode)
	}

	s.mu.Lock()
	delete(s.tenants, "alpha")
	s.mu.Unlock()
	if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", map[string]string{"X-Tenant": "alpha"}); rr == nil {
		t.Fatalf("tenant under cap rejected: %d", resp.StatusCode)
	}
}

func TestServeTraceStream(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", Virtual: true})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(testProject(t, 10, 1, 3))
	resp, err := http.Post(ts.URL+"/run?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	dec := json.NewDecoder(resp.Body)
	var events int
	var last json.RawMessage
	for dec.More() {
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		events++
		last = line
	}
	if events < 5 { // 4 task starts/ends plus messages, then the result
		t.Fatalf("streamed only %d lines", events)
	}
	var rr RunResponse
	if err := json.Unmarshal(last, &rr); err != nil || rr.Outputs["out"] != "15" {
		t.Fatalf("final stream line is not the result: %s (%v)", last, err)
	}
}

// TestServeConcurrentRunsReleaseTheirLogs: waves of concurrent
// run-mode requests of one cached design, plain and streaming the
// trace, each releasing its run's log to the schedule for the next run
// once written. Every reply and every stream is the solo request's
// byte for byte but for the wall-clock elapsed_us; a log handed back
// while still being written, or to two runs at once, shows as a
// different stream or, under the race detector, as a data race.
func TestServeConcurrentRunsReleaseTheirLogs(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultAlg: "etf", Virtual: true, MaxConcurrent: 4, TenantCap: -1}).Handler())
	defer ts.Close()
	body, _ := json.Marshal(testProject(t, 10, 1, 3))
	elapsed := regexp.MustCompile(`"elapsed_us":\d+`)
	post := func(query string) (string, error) {
		resp, err := http.Post(ts.URL+"/run"+query, "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, b)
		}
		return elapsed.ReplaceAllString(string(b), `"elapsed_us":0`), err
	}
	queries := []string{"", "?trace=1"}
	solo := map[string]string{}
	for _, q := range append(queries, queries...) { // the first pair fills the cache
		reply, err := post(q)
		if err != nil {
			t.Fatal(err)
		}
		solo[q] = reply
	}
	if !strings.Contains(solo["?trace=1"], `"kind":"task-start"`) {
		t.Fatalf("the solo stream holds no task start:\n%s", solo["?trace=1"])
	}
	const waves, perWave = 4, 8
	for w := 0; w < waves; w++ {
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			go func(q string) {
				reply, err := post(q)
				if err == nil && reply != solo[q] {
					err = fmt.Errorf("reply to %q differs from the solo one:\n%s\nvs\n%s", q, reply, solo[q])
				}
				errs <- err
			}(queries[i%2])
		}
		for i := 0; i < perWave; i++ {
			if err := <-errs; err != nil {
				t.Errorf("wave %d: %v", w, err)
			}
		}
	}
}

// TestServeInconsistentTraceIsAFailure: a run whose trace does not pair
// up into spans answers 500 and counts as failed — it used to answer
// 200 with "tasks":0.
func TestServeInconsistentTraceIsAFailure(t *testing.T) {
	s := New(Options{})
	rec := httptest.NewRecorder()
	res := &exec.Result{Trace: &trace.Trace{Events: []trace.Event{{Kind: trace.TaskEnd, At: 5, Task: "b"}}}}
	s.writeRun(rec, RunResponse{Name: "x"}, res, 1, false)
	if want := `run produced an inconsistent trace: trace: PE 0 ends \"b\" without matching start`; rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("status %d, body %s; want 500 with %s", rec.Code, rec.Body, want)
	}
	if st := s.Stats(); st.Runs.Total != 1 || st.Runs.Failed != 1 {
		t.Errorf("stats count %d runs, %d failed; want 1 and 1", st.Runs.Total, st.Runs.Failed)
	}
}

func TestServeRejectsGarbage(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status = %d, want 400", resp.StatusCode)
	}
	// Unknown scheduler: refused by name, before the project is opened.
	body, _ := json.Marshal(testProject(t, 10, 1, 3))
	resp, err = http.Post(ts.URL+"/run?alg=nope", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown alg: status = %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/run"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /run: %v %d", err, resp.StatusCode)
	}
	if st := scrapeStats(t, ts.URL); st.Runs.Failed != 2 {
		t.Fatalf("failed = %d, want 2", st.Runs.Failed)
	}
}

// TestServeRejectsTrailingData: a body is one project document. The
// decoder stops after the first JSON value, so what follows it has to
// be looked for: garbage or a second document is a 400, whitespace is
// not.
func TestServeRejectsTrailingData(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, tail string
		status     int
	}{
		{"whitespace", " \n\t", http.StatusOK},
		{"garbage", " trailing garbage", http.StatusBadRequest},
		{"second document", string(doc), http.StatusBadRequest},
		{"stray bracket", "]", http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/run?mode=schedule", "application/json", strings.NewReader(string(doc)+c.tail))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body) // a short read only weakens the message check below
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.status, msg.String())
		}
		if c.status == http.StatusBadRequest && !strings.Contains(msg.String(), "parsing project: trailing data") {
			t.Errorf("%s: body %q does not say \"parsing project: trailing data\"", c.name, msg.String())
		}
	}
}

// postRaw posts body to /run?mode=schedule and returns the status and
// the reply's bytes. With chunked set the request states no
// Content-Length.
func postRaw(t *testing.T, url, body string, chunked bool) (int, string) {
	t.Helper()
	var rd io.Reader = strings.NewReader(body)
	if chunked {
		rd = struct{ io.Reader }{rd} // a reader net/http cannot size
	}
	resp, err := http.Post(url+"/run?mode=schedule", "application/json", rd)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(reply)
}

// TestServeBodyFraming: the body is read whole before it is decoded,
// into a buffer sized by Content-Length when there is one. However the
// bytes were framed — sized, chunked, followed by whitespace — they
// decode to the same project: the replies of a miss and of the hits
// after it differ by the cache verdict and the clock alone.
func TestServeBodyFraming(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := regexp.MustCompile(`"elapsed_us":\d+`)
	var miss string
	for i, c := range []struct {
		name, body string
		chunked    bool
	}{
		{"sized", string(doc), false},
		{"sized again", string(doc), false},
		{"chunked", string(doc), true},
		{"chunked, trailing whitespace", string(doc) + "\r\n \t", true},
		{"sized, trailing whitespace", string(doc) + "\n", false},
	} {
		status, reply := postRaw(t, ts.URL, c.body, c.chunked)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d (%s)", c.name, status, reply)
		}
		reply = elapsed.ReplaceAllString(reply, `"elapsed_us":0`)
		if i == 0 {
			miss = reply
			continue
		}
		if want := strings.Replace(miss, `"cache":"miss"`, `"cache":"hit"`, 1); reply != want {
			t.Errorf("%s: reply %s, want the miss's with the verdict changed: %s", c.name, reply, want)
		}
	}
	if st := scrapeStats(t, ts.URL); st.Cache.Misses != 1 || st.Cache.Hits != 4 {
		t.Errorf("cache stats = %+v, want 1 miss / 4 hits", st.Cache)
	}
}

// TestServeRefusalTexts pins what a body that is not one whole document
// is told, whichever way it falls short: the texts are the ones a
// streaming decoder gave, and clients match on them.
func TestServeRefusalTexts(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	docBytes, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(docBytes)
	badKind := strings.Replace(doc, `"kind":"task"`, `"kind":"bogus"`, 1)
	subOnTask := strings.Replace(doc, `"kind":"task"`, `"kind":"task","sub":{"name":"inner","nodes":[],"arcs":[]}`, 1)
	for _, c := range []struct {
		name, body, want string
	}{
		{"empty", "", "parsing project: EOF"},
		{"whitespace only", " \n", "parsing project: EOF"},
		{"cut off", doc[:len(doc)/2], "parsing project: unexpected EOF"},
		{"cut off before the last brace", doc[:len(doc)-1], "parsing project: unexpected EOF"},
		{"wrong top-level type", "[1,2]", "parsing project: json: cannot unmarshal array into Go value of type project.jsonProject"},
		{"number then letter", "123x", "parsing project: json: cannot unmarshal number into Go value of type project.jsonProject"},
		{"bad document, then garbage", badKind + " x", `parsing project: graph "diamond": unknown node kind "bogus"`},
		{"subgraph on a task", subOnTask, `parsing project: graph "diamond": task node "a" carries a subgraph`},
	} {
		for _, chunked := range []bool{false, true} {
			status, reply := postRaw(t, ts.URL, c.body, chunked)
			var msg struct{ Error string }
			if err := json.Unmarshal([]byte(reply), &msg); err != nil {
				t.Errorf("%s: reply %q is not an error document", c.name, reply)
			}
			if status != http.StatusBadRequest || msg.Error != c.want {
				t.Errorf("%s (chunked %v): %d %q, want 400 %q", c.name, chunked, status, msg.Error, c.want)
			}
		}
	}
}

// TestServeMissingInputsAnswerOneText: a project missing several
// inputs is told about the first of them in flat node order, so the
// same body gets the same 422 byte for byte, every time.
func TestServeMissingInputsAnswerOneText(t *testing.T) {
	ts := httptest.NewServer(New(Options{DefaultAlg: "etf"}).Handler())
	defer ts.Close()
	p := testProject(t, 10, 1, 3)
	g := graph.New("two-inputs")
	g.MustAddStorage("A", "a")
	g.MustAddStorage("B", "b")
	g.MustAddTask("ta", "", 1).Routine = "x = a"
	g.MustAddTask("tb", "", 1).Routine = "y = b"
	g.MustConnect("A", "ta", "a", 1)
	g.MustConnect("B", "tb", "b", 1)
	p.Design, p.Inputs = g, nil
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"error":"opening project: project \"diamond\": task ta needs external input \"a\" which has no value"}` + "\n"
	for i := 0; i < 20; i++ {
		if status, reply := postRaw(t, ts.URL, string(body), false); status != http.StatusUnprocessableEntity || reply != want {
			t.Fatalf("post %d: %d %s, want 422 %s", i, status, reply, want)
		}
	}
}

// TestServeShortBody: a client that promises more bytes than it sends
// and then goes away is answered 400 with the read error — the handler
// neither waits for the rest nor parses a buffer padded out to the
// promised length, and what did arrive is not decoded, whole document
// or not.
func TestServeShortBody(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doc, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, sent := range [][]byte{doc[:len(doc)/2], doc} {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		fmt.Fprintf(conn, "POST /run?mode=schedule HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n%s", len(doc)+100, sent)
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no reply to %d of %d promised bytes: %v", len(sent), len(doc)+100, err)
		}
		reply, _ := io.ReadAll(resp.Body) // the server closes the connection under a refused body
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(reply), "parsing project: unexpected EOF") {
			t.Errorf("%d of %d promised bytes: %d %s, want 400 parsing project: unexpected EOF",
				len(sent), len(doc)+100, resp.StatusCode, reply)
		}
	}
}

// TestServeRejectsOversizedBody: one byte over 64 MB is refused with
// the limit reader's text, whether or not the length was announced.
func TestServeRejectsOversizedBody(t *testing.T) {
	if testing.Short() {
		t.Skip("posts 64 MB")
	}
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, reply := postRaw(t, ts.URL, strings.Repeat(" ", maxBody+1), false)
	if status != http.StatusBadRequest || !strings.Contains(reply, "parsing project: http: request body too large") {
		t.Errorf("oversized body: %d %s, want 400 parsing project: http: request body too large", status, reply)
	}
}

// TestServeRejectsNullInput: "inputs": {"x": null} used to decode as
// x = 0 and run to a wrong answer with status 200.
func TestServeRejectsNullInput(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(good, []byte(`"inputs":{"x":3}`), []byte(`"inputs":{"x":null}`), 1)
	if bytes.Equal(body, good) {
		t.Fatalf("project document has no x input to replace: %s", good)
	}
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var msg bytes.Buffer
	_, _ = msg.ReadFrom(resp.Body) // a short read only weakens the message check below
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "unsupported JSON value") {
		t.Errorf("null input: status %d, body %q; want 400 naming the unsupported value", resp.StatusCode, msg.String())
	}
}

// TestServeRejectsOversizedMachine: a posted machine is built while the
// body decodes, so its size must be refused from the spec alone —
// ring:200000 would otherwise be accepted and ask for two 200000² int
// tables at its first schedule, and full:200000 builds as many
// adjacency entries during decode itself.
func TestServeRejectsOversizedMachine(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range []string{`"topology":"ring:200000"`, `"topology":"full:200000"`, `"n":200000,"edges":[[0,1]]`} {
		body := bytes.Replace(good, []byte(`"topology":"hypercube:2"`), []byte(topo), 1)
		if bytes.Equal(body, good) {
			t.Fatalf("project document has no topology field to replace: %s", good)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body) // a short read only weakens the message check below
		resp.Body.Close()
		took := time.Since(start)
		runtime.ReadMemStats(&after)

		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "at most 1024") {
			t.Errorf("%s: status %d, body %q; want 400 naming the 1024-processor limit", topo, resp.StatusCode, msg.String())
		}
		if took > time.Second {
			t.Errorf("%s: refused after %v, want under 1s", topo, took)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 64 {
			t.Errorf("%s: refusing allocated %.1f MB, want under 64 MB", topo, mb)
		}
	}
}

// TestServeRejectsUnaffordableMHRoutes: MH's route tables grow with the
// sum of the machine's route lengths, cubic on a chain, so a posted
// chain:512 within the processor limit would have MH build 172 MB of
// them. The server sizes them from the hop counts and refuses instead;
// ETF on the same machine keeps no such tables and is served.
func TestServeRejectsUnaffordableMHRoutes(t *testing.T) {
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	good, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.Replace(good, []byte(`"topology":"hypercube:2"`), []byte(`"topology":"chain:512"`), 1)
	if bytes.Equal(body, good) {
		t.Fatalf("project document has no topology field to replace: %s", good)
	}
	post := func(alg string) (int, string) {
		resp, err := http.Post(ts.URL+"/run?mode=schedule&alg="+alg, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body) // a short read only weakens the message check below
		resp.Body.Close()
		return resp.StatusCode, msg.String()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	code, msg := post("mh")
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if code != http.StatusBadRequest || !strings.Contains(msg, "172 MB") || !strings.Contains(msg, "at most 64 MB") {
		t.Errorf("mh on chain:512: status %d, body %q; want 400 naming the tables' 172 MB and the 64 MB budget", code, msg)
	}
	if took > time.Second {
		t.Errorf("mh on chain:512: refused after %v, want under 1s", took)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 64 {
		t.Errorf("mh on chain:512: refusing allocated %.1f MB, want under 64 MB", mb)
	}
	if code, msg := post("etf"); code != http.StatusOK {
		t.Errorf("etf on chain:512: status %d, body %q; want 200", code, msg)
	}
}

// TestServeRejectsExponentialScheduler: sched.ByName resolves
// "optimal", an exponential search with no context to cancel it (the
// built-in stats project on hypercube:3 does not finish in a minute).
// A request must not be able to name it, in the query or through the
// server's default.
func TestServeRejectsExponentialScheduler(t *testing.T) {
	body, err := json.Marshal(testProject(t, 10, 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ def, query string }{{"etf", "?alg=optimal"}, {"optimal", ""}} {
		ts := httptest.NewServer(New(Options{DefaultAlg: c.def}).Handler())
		start := time.Now()
		resp, err := http.Post(ts.URL+"/run"+c.query, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg bytes.Buffer
		_, _ = msg.ReadFrom(resp.Body) // a short read only weakens the message check below
		resp.Body.Close()
		ts.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "unknown scheduler") || !strings.Contains(msg.String(), "(have [serial hlfet") {
			t.Errorf("default %q, query %q: status %d, body %q; want 400 listing the schedulers", c.def, c.query, resp.StatusCode, msg.String())
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("default %q, query %q: refused after %v, want under 1s", c.def, c.query, took)
		}
	}
}

// TestServeDrainAndShutdownLeakFree: draining refuses new work, waits
// out in-flight runs, and leaves no goroutines behind — the shutdown
// contract the CI smoke job asserts via /stats.
func TestServeDrainAndShutdownLeakFree(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{DefaultAlg: "etf"})
	ts := httptest.NewServer(s.Handler())

	for i := 0; i < 4; i++ {
		if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, float64(i)), "", nil); rr == nil {
			t.Fatalf("warm-up run %d rejected: %d", i, resp.StatusCode)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Draining: health reports it and new submissions bounce.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	if rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil); rr != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining: rr=%v status=%d, want 503", rr, resp.StatusCode)
	}
	ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base+2 {
		t.Fatalf("goroutines grew from %d to %d across serve lifetime", base, n)
	}
}

// TestServeDrainWaitsForQueuedRuns: a run waiting in the queue is in
// flight. Drain waits for it as for an executing one, and the run is
// still served once a slot frees.
func TestServeDrainWaitsForQueuedRuns(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", MaxConcurrent: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.sem <- struct{}{} // the slot is busy
	free := sync.OnceFunc(func() { <-s.sem })
	defer free() // before ts.Close, which waits for the queued request
	served := postAsync(t, ts.URL, testProject(t, 10, 1, 3))
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if s.waiting.Load() == 0 {
		t.Fatal("submission never queued")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), "1 runs still in flight") {
		t.Fatalf("drain with one run queued = %v, want the deadline naming 1 run", err)
	}

	free()
	if code := <-served; code != http.StatusOK {
		t.Fatalf("the queued run answered %d after the drain began, want 200", code)
	}
	ctx, cancel = context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain once the queued run finished: %v", err)
	}
}

// startFleet starts two in-process worker daemons and a fleet seeded
// with them, all stopped when the test ends.
func startFleet(t *testing.T, control string) *wire.Fleet {
	tr := wire.Inproc()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var seed []string
	for i := 0; i < 2; i++ {
		addr := fmt.Sprintf("%s-worker-%d", control, i)
		ready := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			wire.ServeWorker(ctx, tr, addr, wire.WorkerOptions{Logf: t.Logf}, func(string) { close(ready) })
		}()
		<-ready
		seed = append(seed, addr)
	}
	fleet := &wire.Fleet{Transport: tr, Control: control, Seed: seed, Logf: t.Logf}
	if err := fleet.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fleet.Close()
		cancel()
		wg.Wait()
	})
	return fleet
}

// TestServeFleetMode runs the control plane against a live in-process
// worker fleet and checks outputs match the in-process engine.
func TestServeFleetMode(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", Fleet: startFleet(t, "fleet-control")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The same submission through the local engine, for comparison.
	p := testProject(t, 10, 1, 3)
	entry, _, err := New(Options{DefaultAlg: "etf"}).compile(p, "etf")
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&exec.Runner{Inputs: p.Inputs}).Run(entry.sc, entry.flat)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		rr, resp := postRun(t, ts.URL, testProject(t, 10, 1, 3), "", nil)
		if rr == nil {
			t.Fatalf("fleet run %d rejected: %d", i, resp.StatusCode)
		}
		for k, v := range want.Outputs {
			if rr.Outputs[k] != fmt.Sprintf("%s", v) {
				t.Fatalf("fleet run %d: output %s = %q, want %q", i, k, rr.Outputs[k], v)
			}
		}
	}
	st := scrapeStats(t, ts.URL)
	if st.Fleet.Size != 2 || st.Fleet.Control == "" {
		t.Fatalf("fleet stats = %+v", st.Fleet)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats over fleet = %+v", st.Cache)
	}
}

// TestServeFleetStatsCountTheDaemons: a fleet-backed server counts each
// run from the log it merged out of the worker daemons' results, and the
// daemons' plane counts carried in each result frame. Three runs count
// three times the design's tasks and the in-process engine's messages,
// and the daemons' remote deliveries left in bursts, at most one flush
// per delivery.
func TestServeFleetStatsCountTheDaemons(t *testing.T) {
	s := New(Options{DefaultAlg: "etf", Fleet: startFleet(t, "fleet-stats")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Four layers of four tasks, each reading two of the layer before:
	// whatever the placement, messages cross between the two daemons.
	p := testProject(t, 10, 1, 3)
	g := graph.New("lattice")
	g.MustAddStorage("IN", "x")
	for l := 0; l < 4; l++ {
		for i := 0; i < 4; i++ {
			id := graph.NodeID(fmt.Sprintf("t%d_%d", l, i))
			n := g.MustAddTask(id, string(id), 10)
			if l == 0 {
				n.Routine = fmt.Sprintf("v%d = x + %d", i, i)
				g.MustConnect("IN", id, "x", 1)
				continue
			}
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, i)), id, fmt.Sprintf("v%d", i), 1)
			g.MustConnect(graph.NodeID(fmt.Sprintf("t%d_%d", l-1, (i+1)%4)), id, fmt.Sprintf("v%d", (i+1)%4), 1)
			n.Routine = fmt.Sprintf("v%d = v%d + v%d", i, i, (i+1)%4)
		}
	}
	p.Design = g
	entry, _, err := New(Options{DefaultAlg: "etf"}).compile(p, "etf")
	if err != nil {
		t.Fatal(err)
	}
	local := &exec.Stats{}
	if _, err := (&exec.Runner{Inputs: p.Inputs, Stats: local}).Run(entry.sc, entry.flat); err != nil {
		t.Fatal(err)
	}
	const runs = 3
	for i := 0; i < runs; i++ {
		if rr, resp := postRun(t, ts.URL, p, "", nil); rr == nil {
			t.Fatalf("fleet run %d rejected: %d", i, resp.StatusCode)
		}
	}
	st := scrapeStats(t, ts.URL).Exec
	if want := int64(runs * entry.flat.Graph.Len()); st.TasksRun != want {
		t.Errorf("%d fleet runs counted %d tasks, want %d", runs, st.TasksRun, want)
	}
	if want := runs * local.Snapshot().MsgsSent; want == 0 || st.MsgsSent != want || st.MsgsRecv != want {
		t.Errorf("%d fleet runs counted %d messages sent and %d received, want %d each", runs, st.MsgsSent, st.MsgsRecv, want)
	}
	if st.RemoteFlushes <= 0 || st.RemoteFlushes > st.RemoteSends {
		t.Errorf("fleet runs counted %d remote sends in %d flushes, want 0 < flushes <= sends", st.RemoteSends, st.RemoteFlushes)
	}
}

// TestServeRunCapHoldsInFleetMode: the server's run slots are the one
// cap on concurrent runs, fleet runs included. With one slot, three
// concurrent submissions are all served and the fleet never has more
// than one run in flight.
func TestServeRunCapHoldsInFleetMode(t *testing.T) {
	f := startFleet(t, "fleet-control-capped")
	s := New(Options{DefaultAlg: "etf", MaxConcurrent: 1, QueueDepth: 4, Fleet: f})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			most = max(most, f.ActiveRuns())
			select {
			case <-stop:
				peak <- most
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	var codes []<-chan int
	for i := 0; i < 3; i++ {
		// A loop in the first task keeps each run in flight long enough
		// for a second one to overlap it if nothing held it back.
		p := testProject(t, 10, 1, float64(i))
		p.Design.Node("a").Routine = "s = 0\nfor i = 1 to 20000 do\n  s = s + i\nend\nu = x + 1"
		codes = append(codes, postAsync(t, ts.URL, p))
	}
	for _, c := range codes {
		if code := <-c; code != http.StatusOK {
			t.Errorf("submission answered %d, want 200", code)
		}
	}
	close(stop)
	if most := <-peak; most > 1 {
		t.Fatalf("%d fleet runs in flight at once with one run slot", most)
	}
}
