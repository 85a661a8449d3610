package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/sched"
)

// Fleet keeps a pool of worker daemons alive across many runs, and is
// the one way to drive a distributed run: `banger serve`, `banger run
// -dist` and the conformance engines all run through one. It remembers
// who is in the pool, hears workers announce themselves, drops members
// whose daemons have died, and places each run on a subset of them.
// A `-dist` run is a fleet seeded with its address list, so its workers
// are numbered in sorted address order, like Members.
//
// What runs share lives here too, so a repeat run pays for none of it:
// the connection a finished run held to each member is parked and
// leased to the next run (one run at a time per connection; a daemon
// returns a connection whose run said goodbye to awaiting a Hello), and
// a schedule is encoded and digested once for every run that ships it.
//
// Worker daemons host any number of runs concurrently (each keyed by
// its run ID), so the fleet runs them concurrently too: every Run call
// places its run on the least-loaded member subset and starts it
// immediately (how many may run at once is its caller's admission, the
// serving layer's run slots). Placement is load-aware — the fleet
// tracks how many runs each worker currently hosts and picks the
// members hosting fewest, so concurrent runs spread over the pool
// instead of piling onto one daemon.
//
// Membership flows through the TJoin/TDrain control protocol on the
// fleet's control listener, the only one there is; the fleet forwards
// each change to every run in flight. A join announce is accepted once
// the member is recorded, and is then offered to each run (a run with
// dead processors integrates the joiner at its next barrier; the rest
// reject it as steady-state noise — announce loops re-offer every
// cycle). A drain names a member by address, or by its index in
// Members, and evacuates it from every run it hosts — one checkpoint
// handover per hosted run — before the member is removed, so `banger
// drain` still means "this process may exit losing nothing", however
// many runs it was serving.
type Fleet struct {
	Transport Transport
	// Control is the persistent control listen address (port 0 picks a
	// free one; Addr reports the bound address). Empty opens no
	// listener: the fleet keeps its seed members and takes no joins or
	// drains.
	Control string
	// Seed lists initial member addresses (may be empty: workers join
	// by announcing).
	Seed []string
	// MinWorkers refuses drains that would leave fewer live members, in
	// the fleet and in each run (0 = only forbid draining the last one).
	MinWorkers int

	// HeartbeatEvery is every run's keepalive cadence (default 250ms);
	// PeerTimeout the silence budget after which a run declares a
	// worker dead (default 3s).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Mesh is ignored: the mesh is always on. The field goes with
	// ROADMAP 3(d), once bench/harness.go:169 stops setting it.
	Mesh bool

	mu      sync.Mutex // guards members, load, active, lis, closed
	members map[string]bool
	load    map[string]int  // runs currently placed per member address
	active  map[*coRun]bool // runs in flight
	idle    idleConns       // parked connections per member, each awaiting a Hello
	ships   shipments
	lis     Listener
	bound   string
	closed  bool
	wg      sync.WaitGroup
}

// Start records the seed members and opens the control listener, if
// the fleet has a Control address. The fleet serves joins and drains
// until Close.
func (f *Fleet) Start() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case f.Transport == nil:
		return errors.New("wire: fleet needs a transport")
	case f.members != nil:
		return errors.New("wire: fleet already started")
	}
	f.members = map[string]bool{}
	for _, a := range f.Seed {
		f.members[a] = true
	}
	f.load = map[string]int{}
	f.active = map[*coRun]bool{}
	if f.Control == "" {
		return nil
	}
	lis, err := f.Transport.Listen(f.Control)
	if err != nil {
		return fmt.Errorf("wire: fleet control listen %s: %w", f.Control, err)
	}
	f.lis = lis
	f.bound = lis.Addr() // resolve ":0" once
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := lis.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				f.control(c)
			}()
		}
	}()
	return nil
}

// Addr is the bound control address, or "" without a listener.
func (f *Fleet) Addr() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.bound
}

// Size is the current member count.
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Members returns the member addresses, sorted for deterministic
// worker indexing.
func (f *Fleet) Members() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.members))
	for a := range f.members {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// ActiveRuns reports how many fleet runs are currently in flight.
func (f *Fleet) ActiveRuns() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.active)
}

// runs snapshots the active run set.
func (f *Fleet) runs() []*coRun {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*coRun, 0, len(f.active))
	for r := range f.active {
		out = append(out, r)
	}
	return out
}

// control answers one control connection: a join adds the member and is
// offered to every run in flight, a drain evacuates the worker from
// every run it hosts and then removes it (respecting the MinWorkers
// floor).
func (f *Fleet) control(c Conn) {
	switch join, drain := readControl(c); {
	case join != nil:
		f.mu.Lock()
		known, closed := f.members[join.Addr], f.closed
		if !known && !closed {
			f.members[join.Addr] = true
		}
		f.mu.Unlock()
		if closed {
			rejectConn(c, "fleet is shutting down")
			return
		}
		if !known {
			slog.Info("fleet: worker joined", "addr", join.Addr, "members", f.Size())
		}
		answerControl(c, nil)
		// Offer the worker to every run in flight. Most reject it
		// (no dead processors, a barrier already forming) — that is
		// steady-state noise, and announce loops re-offer every cycle —
		// but a run that lost a worker picks the joiner up here.
		for _, r := range f.runs() {
			jctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			if err := r.submitJoin(jctx, join.Addr); err == nil {
				slog.Info("fleet: worker joined a run in flight", "run", r.id, "addr", join.Addr)
			}
			cancel()
		}
	case drain != nil:
		answerControl(c, f.drain(drain.Worker, drain.Addr))
	}
}

// drain evacuates a member — the one at addr, or else Members()[worker]
// — from every run it hosts (each run pauses, takes the checkpoint
// handover, replans onto its survivors and says goodbye), and only then
// removes it from the pool.
func (f *Fleet) drain(worker int, addr string) error {
	if addr == "" {
		members := f.Members()
		if worker < 0 || worker >= len(members) {
			return fmt.Errorf("no worker %d: the fleet has %d", worker, len(members))
		}
		addr = members[worker]
	}
	f.mu.Lock()
	member, n := f.members[addr], len(f.members)
	f.mu.Unlock()
	switch floor := max(f.MinWorkers, 1); {
	case !member:
		return fmt.Errorf("no member %s", addr)
	case n <= floor:
		return fmt.Errorf("drain would leave %d workers; the minimum is %d", n-1, floor)
	}
	for _, r := range f.runs() {
		dctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := r.submitDrain(dctx, addr)
		cancel()
		if err != nil && !drainIrrelevant(err) {
			return fmt.Errorf("drain deferred: %v; retry", err)
		}
	}
	f.drop(addr)
	slog.Info("fleet: worker drained", "addr", addr, "members", f.Size())
	return nil
}

// drainIrrelevant reports whether a per-run drain rejection means the
// run simply does not (or no longer) involves the worker — which is
// fine — as opposed to a real obstacle worth surfacing.
func drainIrrelevant(err error) bool {
	for _, fine := range []error{exec.ErrNoSuchWorker, exec.ErrAlreadyDrained, exec.ErrAlreadyLost, errRunEnded} {
		if errors.Is(err, fine) {
			return true
		}
	}
	return false
}

// maxIdle bounds the connections parked per address: a burst of
// concurrent runs must not leave its peak behind as open sockets.
const maxIdle = 8

// idleConns keeps connections whose conversation ended cleanly on both
// sides, by the address of their far end, for the next conversation
// there: a fleet's links to its members, and a daemon's mesh links to
// the daemons it dialled. A leased connection belongs to its lessee
// alone. The most recently parked goes first: it is the likeliest still
// alive. The zero value is empty and open.
type idleConns struct {
	mu     sync.Mutex
	conns  map[string][]Conn
	closed bool
}

// lease takes a parked connection to addr, or nil.
func (p *idleConns) lease(addr string) (c Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cs := p.conns[addr]; len(cs) > 0 {
		c, p.conns[addr] = cs[len(cs)-1], cs[:len(cs)-1]
		if len(cs) == 1 {
			delete(p.conns, addr) // members come and go: the map must not grow
		}
	}
	return c
}

// park keeps c for the next conversation with addr, or closes it when
// the pool is closed or holds maxIdle there already.
func (p *idleConns) park(addr string, c Conn) {
	p.mu.Lock()
	if !p.closed && len(p.conns[addr]) < maxIdle {
		if p.conns == nil {
			p.conns = map[string][]Conn{}
		}
		p.conns[addr], c = append(p.conns[addr], c), nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// close closes every parked connection, and each one parked after it.
func (p *idleConns) close() {
	p.mu.Lock()
	all := p.conns
	p.conns, p.closed = nil, true
	p.mu.Unlock()
	for _, cs := range all {
		for _, c := range cs {
			c.Close()
		}
	}
}

// park keeps a connection to the member at addr for the next run; the
// daemon's end must be awaiting a Hello. One to a member dropped
// meanwhile is closed.
func (f *Fleet) park(addr string, c Conn) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.members[addr] {
		c.Close()
		return
	}
	f.idle.park(addr, c)
}

// connect dials the member at addr once, briefly. Connecting is the
// liveness check: a member that cannot be dialled is dropped.
func (f *Fleet) connect(ctx context.Context, addr string) (Conn, error) {
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	c, err := f.Transport.Dial(dctx, addr)
	if err != nil && ctx.Err() == nil {
		slog.Warn("fleet: dropping dead worker", "addr", addr, "err", err)
		f.drop(addr)
	}
	return c, err
}

// drop removes the member at addr, with its parked connections.
func (f *Fleet) drop(addr string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.members, addr)
	delete(f.load, addr)
	for c := f.idle.lease(addr); c != nil; c = f.idle.lease(addr) {
		c.Close()
	}
}

// place picks the run's worker subset: the numPE least-loaded
// members (ties broken by address for determinism), returned sorted so
// worker indices are stable. A run never needs more workers than the
// machine has processors.
func (f *Fleet) place(live []string, numPE int) []string {
	n := len(live)
	if numPE > 0 && numPE < n {
		n = numPE
	}
	byLoad := append([]string(nil), live...)
	f.mu.Lock()
	sort.SliceStable(byLoad, func(i, j int) bool {
		li, lj := f.load[byLoad[i]], f.load[byLoad[j]]
		if li != lj {
			return li < lj
		}
		return byLoad[i] < byLoad[j]
	})
	f.mu.Unlock()
	placed := byLoad[:n]
	sort.Strings(placed)
	return placed
}

// Run executes one schedule on the fleet and returns a result
// equivalent to Runner.Run's. Runs are concurrent: each call places its
// run on the least-loaded member subset and starts it immediately.
// Worker daemons multiplex the runs placed on them, keyed by run ID.
//
// Nothing checks the members before the run connects to them: the
// connect is the check, and a member that cannot be dialled within 2 s
// is dropped by it. That fails the attempt (connectAll is
// all-or-nothing), as does a worker dying before the run is underway —
// the run's own crash recovery only covers deaths after that. Runs are
// pure computations, so when an attempt fails AND it cost the fleet one
// of the members it was placed on, the run is retried from scratch on
// the survivors; when none survive, the attempt's error is returned.
// Failures with a stable fleet (a broken design, an unschedulable
// machine) surface immediately.
func (f *Fleet) Run(ctx context.Context, runner *exec.Runner, sc *sched.Schedule, flat *graph.Flat) (*exec.Result, error) {
	if runner == nil || sc == nil || sc.Machine == nil {
		return nil, errors.New("wire: a fleet run needs a runner and a schedule")
	}
	var err error // the last attempt's: the cause when no member survives it
	for attempt := 0; ; attempt++ {
		members := f.Members()
		if len(members) == 0 {
			if err != nil {
				return nil, fmt.Errorf("wire: fleet has no live workers left: %w", err)
			}
			return nil, errors.New("wire: fleet has no live workers")
		}
		placed := f.place(members, sc.Machine.NumPE())
		var res *exec.Result
		res, err = f.runOnce(ctx, runner, sc, flat, placed)
		if err == nil || ctx.Err() != nil || attempt >= 2 {
			return res, err
		}
		// Retry only when someone of the attempted set is gone — a join
		// arriving at the same time must not mask the death, so this
		// counts lost members, not a changed size. Each placed member is
		// dialled (again, if the attempt's own connect dropped it), and
		// the fresh connection of one that answers is parked for the
		// retry.
		lost := 0
		for _, a := range placed {
			if c, err := f.connect(ctx, a); err != nil {
				lost++
			} else {
				f.park(a, c)
			}
		}
		if lost == 0 {
			return res, err
		}
		slog.Warn("fleet: run failed; retrying on survivors", "err", err, "lost", lost, "workers", len(placed))
	}
}

// runOnce executes one run over the placed members, registering it
// with the control plane (joins and drains forward to it) and in the
// load accounting for the duration.
func (f *Fleet) runOnce(ctx context.Context, runner *exec.Runner, sc *sched.Schedule, flat *graph.Flat, placed []string) (*exec.Result, error) {
	r := f.newRun(runner, sc, flat, placed)
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, fmt.Errorf("wire: fleet is closed")
	}
	f.active[r] = true
	for _, a := range placed {
		f.load[a]++
	}
	f.mu.Unlock()

	res, err := r.run(ctx)

	f.mu.Lock()
	delete(f.active, r)
	for _, a := range placed {
		// Entries live only while a run is placed there: members come
		// and go (restarted daemons, fresh ports), the map must not grow.
		if f.load[a]--; f.load[a] <= 0 {
			delete(f.load, a)
		}
	}
	f.mu.Unlock()
	return res, err
}

// Close stops the control listener, closes the parked connections and
// waits the accept machinery out. Any run in flight finishes on its
// own.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	lis := f.lis
	f.lis = nil
	f.mu.Unlock()
	if lis != nil {
		lis.Close()
	}
	f.idle.close()
	f.wg.Wait()
}
