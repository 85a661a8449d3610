package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/machine"
	"repro/internal/project"
	"repro/internal/sched"
	"repro/internal/wire"
)

// Options configures a Server. Zero values pick serving defaults;
// negative values disable the corresponding mechanism where noted.
type Options struct {
	// DefaultAlg schedules submissions that name no algorithm
	// ("" = mh, the paper's flagship heuristic).
	DefaultAlg string
	// MaxConcurrent bounds simultaneously executing runs
	// (0 = GOMAXPROCS). Fleet runs execute concurrently too: worker
	// daemons multiplex sessions keyed by run ID, and the fleet places
	// each admitted run on its least-loaded member subset.
	MaxConcurrent int
	// QueueDepth bounds runs admitted but waiting for an execution
	// slot; beyond it submissions are rejected with 429 + Retry-After
	// (0 = 64, negative = no waiting room at all).
	QueueDepth int
	// TenantCap bounds one tenant's in-flight runs, executing plus
	// queued (0 = 8, negative = unlimited). The tenant is the
	// X-Tenant request header ("anon" when absent).
	TenantCap int
	// CacheCap bounds the schedule cache (0 = 128 entries, negative =
	// caching disabled).
	CacheCap int
	// Fleet, when set, executes runs on a shared elastic worker fleet
	// instead of in-process goroutines.
	Fleet *wire.Fleet
	// Virtual stamps traces in deterministic virtual time.
	Virtual bool
	// WatchdogMin is ignored; it goes with ROADMAP 3(d), once
	// bench/harness.go:93 stops setting it.
	WatchdogMin time.Duration
}

// Server is the control plane: it owns the schedule cache, the
// admission machinery and the shared execution statistics, and serves
// POST /run, GET /healthz and GET /stats.
type Server struct {
	opts  Options
	alg   string
	cache *scheduleCache
	stats *exec.Stats
	sem   chan struct{}
	start time.Time

	waiting  atomic.Int64 // admitted, not yet holding an execution slot
	active   atomic.Int64 // holding an execution slot
	total    atomic.Int64 // completed runs (success or failure)
	failed   atomic.Int64
	rejected atomic.Int64 // turned away by admission control

	mu       sync.Mutex
	tenants  map[string]int // admitted runs per tenant
	admitted int            // admitted runs, queued or executing
	idle     chan struct{}  // non-nil once draining; closed when admitted reaches 0
	mux      *http.ServeMux
}

// New builds a Server. The fleet, if any, must already be started.
func New(opts Options) *Server {
	if opts.DefaultAlg == "" {
		opts.DefaultAlg = "mh"
	}
	if opts.MaxConcurrent == 0 {
		opts.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth == 0 {
		opts.QueueDepth = 64
	}
	if opts.TenantCap == 0 {
		opts.TenantCap = 8
	}
	if opts.CacheCap == 0 {
		opts.CacheCap = 128
	}
	s := &Server{
		opts:    opts,
		alg:     opts.DefaultAlg,
		cache:   newScheduleCache(opts.CacheCap),
		stats:   &exec.Stats{},
		sem:     make(chan struct{}, opts.MaxConcurrent),
		start:   time.Now(),
		tenants: map[string]int{},
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// Handler returns the HTTP handler for the control plane.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops admitting runs and waits for the admitted ones, queued
// or executing, to finish (or ctx to expire). The fleet, if any, is
// left running — closing it is the owner's business.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.idle == nil {
		s.idle = make(chan struct{})
		if s.admitted == 0 {
			close(s.idle)
		}
	}
	idle := s.idle
	s.mu.Unlock()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		defer s.mu.Unlock()
		return fmt.Errorf("serve: drain: %d runs still in flight: %w", s.admitted, ctx.Err())
	}
}

// RunResponse is the result document of one submission. Execution
// fields (printed, outputs, tasks) are absent in schedule-only mode;
// prediction fields (makespan_us, pes, speedup) are absent in run
// mode.
type RunResponse struct {
	Name      string            `json:"name"`
	Algorithm string            `json:"alg"`
	Cache     string            `json:"cache"` // "hit" or "miss"
	ElapsedUS int64             `json:"elapsed_us"`
	Tasks     int64             `json:"tasks,omitempty"`
	Msgs      int64             `json:"msgs"`
	Printed   []string          `json:"printed,omitempty"`
	Outputs   map[string]string `json:"outputs,omitempty"`

	MakespanUS int64   `json:"makespan_us,omitempty"`
	PEs        int     `json:"pes,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
}

// traceEvent is the streamed projection of one trace event.
type traceEvent struct {
	Kind string `json:"kind"`
	At   int64  `json:"at"`
	Task string `json:"task,omitempty"`
	PE   int    `json:"pe"`
	Var  string `json:"var,omitempty"`
	Peer int    `json:"peer,omitempty"`
	Note string `json:"note,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// admit applies admission control for one submission. It returns a
// release function when the request may proceed to wait for an
// execution slot, or writes the rejection and returns nil.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (tenant string, release func()) {
	tenant = r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "anon"
	}
	// Admission is counted under the lock Drain takes to start draining,
	// so a run is either refused here or waited for there.
	s.mu.Lock()
	if s.idle != nil {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return "", nil
	}
	if cap := s.opts.TenantCap; cap > 0 && s.tenants[tenant] >= cap {
		s.mu.Unlock()
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			"tenant %q already has %d runs in flight", tenant, cap)
		return "", nil
	}
	s.tenants[tenant]++
	s.admitted++
	s.mu.Unlock()
	// Acquire an execution slot, queueing when all are busy. The run
	// queue is bounded: beyond the configured depth the server is
	// saturated, and honest backpressure beats unbounded queueing.
	select {
	case s.sem <- struct{}{}: // a slot is free; no queueing needed
	default:
		if s.waiting.Load() >= int64(max(s.opts.QueueDepth, 0)) {
			s.leave(tenant)
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests,
				"run queue is full (%d waiting)", s.waiting.Load())
			return "", nil
		}
		s.waiting.Add(1)
		select {
		case s.sem <- struct{}{}:
			s.waiting.Add(-1)
		case <-r.Context().Done():
			s.waiting.Add(-1)
			s.leave(tenant)
			s.rejected.Add(1)
			return "", nil
		}
	}
	s.active.Add(1)
	return tenant, func() {
		s.active.Add(-1)
		<-s.sem
		s.leave(tenant)
	}
}

// leave uncounts one admitted run, waking a Drain it was the last of.
func (s *Server) leave(tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[tenant]--; s.tenants[tenant] <= 0 {
		delete(s.tenants, tenant)
	}
	if s.admitted--; s.admitted == 0 && s.idle != nil {
		close(s.idle)
	}
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST a project document to /run")
		return
	}
	_, release := s.admit(w, r)
	if release == nil {
		return
	}
	defer release()

	p, err := decodeBody(w, r)
	if err != nil {
		s.failRun(w, http.StatusBadRequest, "parsing project: %v", err)
		return
	}
	alg := r.URL.Query().Get("alg")
	if alg == "" {
		alg = s.alg
	}
	if err := checkAlg(alg, p.Machine); err != nil {
		s.failRun(w, http.StatusBadRequest, "%v", err)
		return
	}
	mode := r.URL.Query().Get("mode")
	if mode != "" && mode != "run" && mode != "schedule" {
		s.failRun(w, http.StatusBadRequest, "unknown mode %q (want run or schedule)", mode)
		return
	}

	start := time.Now()
	entry, verdict, err := s.compile(p, alg)
	if err != nil {
		s.failRun(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}

	// Only the name and the inputs are read from here on, copied out so
	// that nothing else of the decoded project (its design or the design's
	// wire form, its machine), garbage on a hit, stays reachable for the
	// length of the run.
	name, inputs := p.Name, p.Inputs

	if mode == "schedule" {
		// Schedule-only: the paper's interactive predict step as a
		// service — map the design, report the predicted makespan and
		// speedup, skip execution. This is the regime where the
		// schedule cache is the entire cost of a request.
		s.total.Add(1)
		sc := entry.sc
		msgs, _ := sc.CommVolume()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(RunResponse{
			Name: name, Algorithm: alg, Cache: verdict,
			ElapsedUS:  time.Since(start).Microseconds(),
			Msgs:       int64(msgs),
			MakespanUS: int64(sc.Makespan()),
			PEs:        sc.UsedPEs(),
			Speedup:    sc.Speedup(),
		})
		return
	}

	runner := &exec.Runner{Inputs: inputs, Stats: s.stats, VirtualTime: s.opts.Virtual}
	var res *exec.Result
	if s.opts.Fleet != nil {
		res, err = s.opts.Fleet.Run(r.Context(), runner, entry.sc, entry.flat)
	} else {
		res, err = runner.RunContext(r.Context(), entry.sc, entry.flat)
	}
	if err != nil {
		s.failRun(w, http.StatusInternalServerError, "run failed: %v", err)
		return
	}
	s.writeRun(w, RunResponse{Name: name, Algorithm: alg, Cache: verdict},
		res, entry.sc.Machine.NumPE(), r.URL.Query().Get("trace") != "")
	// Written, or refused: either way the log goes back to the schedule
	// for its next run.
	res.Release()
}

// maxBody bounds a request body.
const maxBody = 64 << 20

// decodeBody reads the request's body into one buffer — sized by the
// Content-Length when one is stated and within bounds, grown as bytes
// arrive otherwise — and decodes it as one project document. Refusals
// keep the texts of a decoder reading the stream, which clients match
// on: the document is judged before what follows it, and a body that
// ends early is named by the read error it amounts to.
func decodeBody(w http.ResponseWriter, r *http.Request) (*project.Project, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBody {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead to spare when it meets EOF
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBody)); err != nil {
		return nil, err
	}
	body := buf.Bytes()
	p, err := project.Decode(body)
	var syn *json.SyntaxError
	if !errors.As(err, &syn) {
		return p, err
	}
	switch {
	case strings.HasSuffix(syn.Error(), "after top-level value"):
		if p, err = project.Decode(body[:syn.Offset-1]); err == nil {
			err = errors.New("trailing data")
		}
	case syn.Error() == "unexpected end of JSON input":
		err = io.ErrUnexpectedEOF
		if len(bytes.TrimSpace(body)) == 0 {
			err = io.EOF
		}
	}
	return p, err
}

// writeRun answers a finished run: resp filled in from res, preceded
// in trace mode by the event stream, in the order Summarize left it
// sorted in. A trace that does not pair up into spans is a failed run,
// not a reply counting zero tasks.
func (s *Server) writeRun(w http.ResponseWriter, resp RunResponse, res *exec.Result, numPE int, stream bool) {
	st, err := res.Trace.Summarize(numPE)
	if err != nil {
		s.failRun(w, http.StatusInternalServerError, "run produced an inconsistent trace: %v", err)
		return
	}
	s.total.Add(1)
	resp.ElapsedUS = res.Elapsed.Microseconds()
	resp.Tasks, resp.Msgs = int64(st.TasksRun), int64(st.Msgs)
	resp.Printed, resp.Outputs = res.Printed, renderOutputs(res)

	w.Header().Set("Content-Type", "application/json")
	if !stream {
		json.NewEncoder(w).Encode(resp)
		return
	}
	// Trace mode streams newline-delimited JSON: one line per trace
	// event, then the result document.
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, ev := range res.Trace.Events {
		enc.Encode(traceEvent{Kind: ev.Kind.String(), At: int64(ev.At),
			Task: string(ev.Task), PE: ev.PE, Var: ev.Var, Peer: ev.Peer, Note: ev.Note})
	}
	enc.Encode(resp)
}

func (s *Server) failRun(w http.ResponseWriter, code int, format string, args ...any) {
	s.total.Add(1)
	s.failed.Add(1)
	httpError(w, code, format, args...)
}

// compile turns a submission into a runnable {flat graph, schedule}
// pair, paying scheduling only on cache misses. The fingerprint covers
// the flattened design (weights included), the machine and the
// algorithm — input values deliberately excluded, so the steady-state
// service regime of same-shape/different-data requests schedules once.
func (s *Server) compile(p *project.Project, alg string) (cacheEntry, string, error) {
	env, err := core.Open(p)
	if err != nil {
		return cacheEntry{}, "", fmt.Errorf("opening project: %w", err)
	}
	key := sched.Fingerprint(env.Flat, p.Machine, alg)
	if entry, ok := s.cache.get(key); ok {
		return entry, "hit", nil
	}
	sc, err := env.ScheduleOn(alg, p.Machine)
	if err != nil {
		return cacheEntry{}, "", fmt.Errorf("scheduling: %w", err)
	}
	// Finalize the derived views before the pair is shared across
	// concurrent cache-hit runs (that lazy build is not synchronized).
	// The machine's routing tables need no build here: its topology is
	// interned per spec, so only the first document naming it builds them.
	sc.Finalize()
	entry := cacheEntry{flat: env.Flat, sc: sc}
	s.cache.put(key, entry)
	return entry, "miss", nil
}

// checkAlg refuses an alg that is not one of sched.All(). sched.ByName
// also resolves "optimal", whose search is exponential and takes no
// context, so one request naming it would hold a core and an admission
// slot past any timeout. It refuses MH on a machine (m, when the
// request has one) whose route tables would outgrow the budget MH keeps
// them in: a posted chain:512 asks for 172 MB of them before the first
// task is placed, chain:1024 for 1.3 GB.
func checkAlg(alg string, m *machine.Machine) error {
	all := sched.All()
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name()
	}
	if !slices.Contains(names, alg) {
		return fmt.Errorf("unknown scheduler %q (have %v)", alg, names)
	}
	if alg == (sched.MH{}).Name() && m != nil {
		if b := sched.MHRouteBytes(m.Topo); b > sched.MHRouteBudget {
			return fmt.Errorf("machine %q: mh's route tables on %s would take %d MB; a request may ask for at most %d MB",
				m.Name, m.Topo.Name, b>>20, sched.MHRouteBudget>>20)
		}
	}
	return nil
}

// renderOutputs renders the run's external outputs exactly as `banger
// run` prints them, so batch-vs-serial comparisons are byte-level.
func renderOutputs(res *exec.Result) map[string]string {
	out := make(map[string]string, len(res.Outputs))
	for k, v := range res.Outputs {
		out[k] = fmt.Sprintf("%s", v)
	}
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	s.mu.Lock()
	if s.idle != nil {
		status, code = "draining", http.StatusServiceUnavailable
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status": status,
		"fleet":  s.fleetSize(),
	})
}

func (s *Server) fleetSize() int {
	if s.opts.Fleet == nil {
		return 0
	}
	return s.opts.Fleet.Size()
}

// StatsResponse is the /stats document.
type StatsResponse struct {
	UptimeUS int64 `json:"uptime_us"`
	Runs     struct {
		Total    int64 `json:"total"`
		Failed   int64 `json:"failed"`
		Rejected int64 `json:"rejected"`
		Active   int64 `json:"active"`
		Queued   int64 `json:"queued"`
	} `json:"runs"`
	Cache CacheStats         `json:"cache"`
	Exec  exec.StatsSnapshot `json:"exec"`
	Fleet struct {
		Size    int      `json:"size"`
		Control string   `json:"control,omitempty"`
		Members []string `json:"members,omitempty"`
	} `json:"fleet"`
	Goroutines int `json:"goroutines"`
}

// Stats snapshots the control plane's counters (also the /stats body).
func (s *Server) Stats() StatsResponse {
	var resp StatsResponse
	resp.UptimeUS = time.Since(s.start).Microseconds()
	resp.Runs.Total = s.total.Load()
	resp.Runs.Failed = s.failed.Load()
	resp.Runs.Rejected = s.rejected.Load()
	resp.Runs.Active = s.active.Load()
	resp.Runs.Queued = s.waiting.Load()
	resp.Cache = s.cache.stats()
	resp.Exec = s.stats.Snapshot()
	if f := s.opts.Fleet; f != nil {
		resp.Fleet.Size = f.Size()
		resp.Fleet.Control = f.Addr()
		m := f.Members()
		sort.Strings(m)
		resp.Fleet.Members = m
	}
	resp.Goroutines = runtime.NumGoroutine()
	return resp
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}
