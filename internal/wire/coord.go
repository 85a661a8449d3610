package wire

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Coordinator drives a distributed run: it places the machine's
// processors on worker daemons (sched.Place), ships each its share of
// the schedule and the worker address map, and arbitrates membership,
// heartbeats and the recovery barrier when a processor crashes or a
// whole worker process dies. Workers exchange data frames over direct
// mesh links; a frame whose link is not up comes here instead and is
// forwarded by its destination processor without being decoded.
type Coordinator struct {
	Transport Transport
	Addrs     []string
	// Runner supplies the run options every worker reproduces (faults,
	// retry, grace, watchdogs, virtual time) and the run inputs.
	Runner *exec.Runner

	// HeartbeatEvery is the keepalive cadence (default 250ms);
	// PeerTimeout the silence budget after which a worker is declared
	// dead (default 3s); ConnectTimeout bounds the initial dials
	// (default 10s).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	ConnectTimeout time.Duration

	// Mesh is ignored: the mesh is always on. The field is kept only
	// until the benchmark harness's struct literals drop it.
	Mesh bool
	// Control is an optional listen address for fleet-elasticity
	// commands: workers announce themselves with Join to enter a run in
	// flight, and `banger drain` asks for a graceful evacuation with
	// Drain. Empty disables the control listener.
	Control string
	// MinWorkers is the smallest live fleet a drain may leave behind
	// (0 means 1: the run must always keep at least one worker).
	MinWorkers int
	// ControlReady, when set, is called once with the control listener's
	// bound address, so a Control of "host:0" remains reachable.
	ControlReady func(addr string)
	// FlushEvery is the frame-coalescing window shipped to workers
	// (default 200µs): small data frames batch per peer until a slot
	// boundary, an idle/pause barrier, or this much time passes.
	FlushEvery time.Duration
	// MaxOutbox caps unacked frames per link (0 = DefaultMaxOutbox); a
	// link past the cap fails cleanly instead of queueing unboundedly.
	MaxOutbox int

	Logf func(format string, args ...any)

	// Single-entry schedule-encoding memo (see encodedSchedule).
	encMu  sync.Mutex
	encFor *sched.Schedule
	encBin []byte

	// The run in flight installs its event channel here so
	// SubmitJoin/SubmitDrain can reach it from outside (the fleet's
	// always-up control plane forwards joins and drains this way).
	ctlMu   sync.Mutex
	ctlCh   chan coEvent
	ctlDone chan struct{}
}

// runSeq makes run IDs collision-proof within a process: concurrent
// runs of the same algorithm can start in the same nanosecond, and the
// run ID is the key every worker daemon routes by.
var runSeq atomic.Uint64

// encodedSchedule memoizes EncodeSchedule for the last schedule seen:
// repeated runs of one design (benchmarks, parameter sweeps) re-ship
// identical bytes without re-interning every string. Sound because a
// schedule is immutable once Finalize has run.
func (co *Coordinator) encodedSchedule(s *sched.Schedule) ([]byte, error) {
	co.encMu.Lock()
	defer co.encMu.Unlock()
	if co.encFor == s && co.encBin != nil {
		return co.encBin, nil
	}
	b, err := EncodeSchedule(s)
	if err != nil {
		return nil, err
	}
	co.encFor, co.encBin = s, b
	return b, nil
}

func (co *Coordinator) logf(format string, args ...any) {
	if co.Logf != nil {
		co.Logf(format, args...)
	}
}

func (co *Coordinator) heartbeatEvery() time.Duration {
	if co.HeartbeatEvery > 0 {
		return co.HeartbeatEvery
	}
	return 250 * time.Millisecond
}

func (co *Coordinator) peerTimeout() time.Duration {
	if co.PeerTimeout > 0 {
		return co.PeerTimeout
	}
	return 3 * time.Second
}

func (co *Coordinator) connectTimeout() time.Duration {
	if co.ConnectTimeout > 0 {
		return co.ConnectTimeout
	}
	return 10 * time.Second
}

func (co *Coordinator) flushEvery() time.Duration {
	if co.FlushEvery > 0 {
		return co.FlushEvery
	}
	return defaultFlushEvery
}

// peer is the coordinator's view of one worker process.
type peer struct {
	i    int
	addr string
	link *Link
	pes  []int

	idle      bool
	lost      bool
	pending   bool // joined mid-run, not yet integrated at a barrier
	drained   bool // departed gracefully; state handed over
	parked    *exec.PauseState
	result    *ResultNote
	lastHeard time.Time
	redial    context.CancelFunc // non-nil while a reconnect is in flight
	ackDue    bool               // a batched cumulative ack is owed (run loop only)
}

// active reports whether the peer takes part in the run protocol:
// lost and drained peers are out, pending joiners are not yet in.
func (p *peer) active() bool { return !p.lost && !p.drained && !p.pending }

// ctlReply carries a fleet-elasticity verdict back to whoever asked:
// welcome means accepted/completed, reject names the reason. The two
// implementations answer a control connection (the coordinator's own
// listener) or resolve an in-process request (a fleet-forwarded
// SubmitJoin/SubmitDrain).
type ctlReply interface {
	welcome()
	reject(msg string)
}

// connReply answers a control connection and closes it.
type connReply struct{ c Conn }

func (r connReply) welcome() {
	r.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})})
	r.c.Close()
}

func (r connReply) reject(msg string) { rejectConn(r.c, msg) }

// chanReply resolves an in-process control request. Buffered (cap 1)
// so the central loop never blocks delivering the verdict.
type chanReply chan error

func (r chanReply) welcome()          { r <- nil }
func (r chanReply) reject(msg string) { r <- errors.New(msg) }

// ctlReq is one fleet-elasticity request entering the central loop
// from the control listener (join announce, drain order), from a
// fleet-forwarded submission, or from the join dial goroutine (the
// dialed worker connection).
type ctlReq struct {
	join   *JoinNote
	drain  *DrainNote
	dialed Conn  // join phase 2: the handshaken worker connection
	err    error // join phase 2: dial failure
	addr   string
	reply  ctlReply // awaiting the outcome
}

// coEvent is one occurrence on the coordinator's central loop: a frame
// from peer i, a connection error, a successful reconnect, or a
// control request.
type coEvent struct {
	i    int
	f    Frame
	err  error
	conn Conn   // reattach: fresh connection
	rcvd uint64 // reattach: worker's receive watermark
	ctl  *ctlReq
}

// run states of the coordinator loop.
const (
	stRunning = iota
	stPausing
	stFinishing
)

// coRun is the mutable state of one distributed run.
type coRun struct {
	co     *Coordinator
	s      *sched.Schedule
	flat   *graph.Flat
	id     string
	peers  []*peer
	addrs  []string // worker listen addresses by index (grows on join)
	peerOf []int    // pe -> worker index
	dead   []bool
	epoch  int64
	state  int
	events chan coEvent
	start  time.Time
	extra  []trace.Event // coordinator-side trace events
	ctx    context.Context
	cancel context.CancelFunc
	// schedBin and inputs are the encoded schedule and run inputs every
	// start bundle (the initial ones and any joiner's) carries.
	schedBin, inputs []byte

	// Fleet elasticity: at most one join or drain is in flight at a
	// time; crashes fold into whatever barrier is already forming.
	draining   *peer           // drain target awaiting the barrier
	drainReply ctlReply        // requester awaiting the drain outcome
	joinAddr   string          // join announce being dialed (phase 1->2)
	joining    *peer           // pending joiner awaiting integration
	joinReply  ctlReply        // requester awaiting the join outcome
	saved      []*exec.Partial // drained workers' print/trace contributions
}

// liveWorkers counts peers still taking part in the run.
func (r *coRun) liveWorkers() int {
	n := 0
	for _, p := range r.peers {
		if p.active() {
			n++
		}
	}
	return n
}

// Run executes schedule s distributed over the coordinator's workers
// and returns a result equivalent to Runner.Run's.
func (co *Coordinator) Run(ctx context.Context, s *sched.Schedule, flat *graph.Flat) (*exec.Result, error) {
	if co.Transport == nil {
		return nil, fmt.Errorf("wire: coordinator needs a transport")
	}
	if len(co.Addrs) == 0 {
		return nil, fmt.Errorf("wire: coordinator needs at least one worker address")
	}
	if co.Runner == nil {
		return nil, fmt.Errorf("wire: coordinator needs a runner for options and inputs")
	}
	if s == nil || s.Machine == nil {
		return nil, fmt.Errorf("wire: nil schedule")
	}
	s.Finalize()
	numPE := s.Machine.NumPE()
	workers := len(co.Addrs)
	if workers > numPE {
		workers = numPE
		co.logf("machine has %d processors; using %d of %d workers", numPE, workers, len(co.Addrs))
	}
	// Traffic-aware placement: near-equal per-worker quotas, grouped to
	// minimize cross-worker bytes (never worse than contiguous blocks;
	// see sched.Place).
	peerOf := sched.Place(s, workers)
	blocks := make([][]int, workers)
	for pe, w := range peerOf {
		blocks[w] = append(blocks[w], pe)
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &coRun{
		co: co, s: s, flat: flat,
		id:     fmt.Sprintf("%s-%d-%d", s.Algorithm, time.Now().UnixNano(), runSeq.Add(1)),
		addrs:  append([]string(nil), co.Addrs[:workers]...),
		peerOf: peerOf,
		dead:   make([]bool, numPE),
		events: make(chan coEvent, 256),
		start:  time.Now(),
		cancel: cancel,
	}
	for i, block := range blocks {
		p := &peer{i: i, addr: co.Addrs[i], pes: block, lastHeard: time.Now()}
		r.peers = append(r.peers, p)
	}

	res, err := r.run(ctx)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// now is the coordinator event timestamp: microseconds since run start.
func (r *coRun) now() machine.Time {
	return machine.Time(time.Since(r.start) / time.Microsecond)
}

// run connects, starts, and drives the central loop to completion.
func (r *coRun) run(ctx context.Context) (*exec.Result, error) {
	r.ctx = ctx
	// Expose the event channel for fleet-forwarded joins and drains;
	// ctlDone lets a submitter whose request never got processed stop
	// waiting when the run ends.
	done := make(chan struct{})
	r.co.ctlMu.Lock()
	r.co.ctlCh, r.co.ctlDone = r.events, done
	r.co.ctlMu.Unlock()
	defer func() {
		r.co.ctlMu.Lock()
		r.co.ctlCh, r.co.ctlDone = nil, nil
		r.co.ctlMu.Unlock()
		close(done)
		for _, p := range r.peers {
			if p.redial != nil {
				p.redial()
			}
			p.link.Close()
		}
		for _, rp := range []ctlReply{r.drainReply, r.joinReply} {
			if rp != nil {
				rp.reject("run ended before the fleet change completed")
			}
		}
	}()

	if err := r.connectAll(ctx); err != nil {
		return nil, err
	}
	if r.co.Control != "" {
		lis, err := r.co.Transport.Listen(r.co.Control)
		if err != nil {
			return nil, fmt.Errorf("wire: control listener: %w", err)
		}
		defer lis.Close()
		r.co.logf("control listening on %s", lis.Addr())
		if r.co.ControlReady != nil {
			r.co.ControlReady(lis.Addr())
		}
		go r.acceptControl(ctx, lis)
	}
	if err := r.startAll(); err != nil {
		return nil, err
	}

	hb := time.NewTicker(r.co.heartbeatEvery())
	defer hb.Stop()
	handled := 0
	for {
		select {
		case <-ctx.Done():
			r.broadcast(TError, encJSON(ErrorNote{Msg: "run cancelled by coordinator"}))
			return nil, fmt.Errorf("wire: run cancelled: %w", ctx.Err())
		case <-hb.C:
			r.flushAll()
			if err := r.heartbeat(); err != nil {
				return nil, err
			}
		case ev := <-r.events:
			if ev.ctl != nil {
				if err := r.handleControl(ctx, ev.ctl); err != nil {
					return nil, err
				}
				if handled++; len(r.events) == 0 || handled >= 64 {
					handled = 0
					r.flushAll()
				}
				continue
			}
			p := r.peers[ev.i]
			switch {
			case p.lost || p.drained:
				// Late traffic from a departed worker: ignore.
			case ev.conn != nil:
				p.redial = nil
				if err := p.link.Reattach(ev.conn, ev.rcvd); err != nil {
					p.link.Detach()
					r.redialPeer(ctx, p)
					continue
				}
				p.lastHeard = time.Now()
				r.extra = append(r.extra, trace.Event{Kind: trace.PeerConnected, At: r.now(), Peer: p.i, Note: "reconnect"})
				r.co.logf("worker %d (%s) reconnected", p.i, p.addr)
				r.startReader(ctx, p)
			case ev.err != nil:
				// Connection broke: keep the run alive and redial until
				// the heartbeat budget declares the worker dead.
				p.link.Detach()
				r.redialPeer(ctx, p)
			default:
				p.lastHeard = time.Now()
				done, res, err := r.handleFrame(p, ev.f)
				if err != nil || done {
					return res, err
				}
			}
			// Flush coalesced relays and batched acks when the inbound
			// queue drains (and periodically inside long bursts, so a
			// sender's outbox doesn't wait on a saturated loop).
			if handled++; len(r.events) == 0 || handled >= 64 {
				handled = 0
				r.flushAll()
			}
		}
	}
}

// flushAll drives every peer's coalescing buffer onto the wire, each
// carrying at most one batched cumulative ack.
func (r *coRun) flushAll() {
	for _, p := range r.peers {
		if p.lost || p.drained {
			continue
		}
		if p.ackDue && p.link.Conn() != nil {
			p.ackDue = false
			p.link.SendRawBuffered(Frame{Type: TAck, Payload: encU64(p.link.Rcvd())})
		}
		if err := p.link.Flush(); err != nil {
			r.breakConn(p, err)
		}
	}
}

// breakConn treats a write failure on an attached connection as a
// connection break: detach now and redial, instead of waiting for the
// reader goroutine to notice much later. Sequenced frames already sit
// in the link outbox and replay on reattach.
func (r *coRun) breakConn(p *peer, err error) {
	if p.lost || errors.Is(err, ErrLinkDetached) {
		return
	}
	r.co.logf("worker %d (%s) write failed (%v); reconnecting", p.i, p.addr, err)
	p.link.Detach()
	r.redialPeer(r.ctx, p)
}

// connectAll dials and handshakes every worker.
func (r *coRun) connectAll(ctx context.Context) error {
	dctx, cancel := context.WithTimeout(ctx, r.co.connectTimeout())
	defer cancel()
	type dialRes struct {
		i    int
		conn Conn
		err  error
	}
	ch := make(chan dialRes, len(r.peers))
	for _, p := range r.peers {
		go func(p *peer) {
			c, err := dialBackoff(dctx, r.co.Transport, p.addr, 0, 0)
			if err == nil {
				if _, err = handshake(c, Hello{Proto: ProtoVersion, Run: r.id}); err != nil {
					c.Close()
					c = nil
				}
			}
			ch <- dialRes{i: p.i, conn: c, err: err}
		}(p)
	}
	var firstErr error
	for range r.peers {
		dr := <-ch
		if dr.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("wire: worker %d (%s): %w", dr.i, r.peers[dr.i].addr, dr.err)
			}
			continue
		}
		p := r.peers[dr.i]
		p.link = NewLink(dr.conn)
		p.link.SetMaxOutbox(r.co.MaxOutbox)
		p.lastHeard = time.Now()
	}
	if firstErr != nil {
		for _, p := range r.peers {
			if p.link != nil {
				p.link.Close()
			}
		}
		return firstErr
	}
	for _, p := range r.peers {
		r.extra = append(r.extra, trace.Event{Kind: trace.PeerConnected, At: r.now(), Peer: p.i, Note: p.addr})
		r.startReader(ctx, p)
	}
	return nil
}

// handshake sends Hello on a fresh connection and expects a Welcome
// speaking this protocol version; it returns the accepting side's
// receive watermark (what a reconnect replays its outbox from). A
// rejection surfaces the other side's reason.
func handshake(c Conn, h Hello) (uint64, error) {
	if err := c.WriteFrame(Frame{Type: THello, Payload: encJSON(h)}); err != nil {
		return 0, err
	}
	f, err := c.ReadFrame()
	if err != nil {
		return 0, err
	}
	switch f.Type {
	case TWelcome:
		w, err := decJSON[Welcome](f.Payload, "welcome")
		if err != nil {
			return 0, err
		}
		if w.Proto != ProtoVersion {
			return 0, fmt.Errorf("wire: worker speaks protocol %d, need %d", w.Proto, ProtoVersion)
		}
		return w.Rcvd, nil
	case TError:
		n, _ := decJSON[ErrorNote](f.Payload, "error")
		return 0, fmt.Errorf("wire: worker rejected handshake: %s", n.Msg)
	default:
		return 0, fmt.Errorf("wire: expected welcome, got %s", f.Type)
	}
}

// startReader pumps frames from the peer's current connection into the
// central loop.
func (r *coRun) startReader(ctx context.Context, p *peer) {
	c := p.link.Conn()
	go func() {
		for {
			f, err := c.ReadFrame()
			if err != nil {
				select {
				case r.events <- coEvent{i: p.i, err: err}:
				case <-ctx.Done():
				}
				return
			}
			select {
			case r.events <- coEvent{i: p.i, f: f}:
			case <-ctx.Done():
				return
			}
		}
	}()
}

// redialPeer reconnects to a worker in the background. The attempt is
// bounded by the peer timeout: past it the heartbeat check declares the
// worker lost and cancels the attempt.
func (r *coRun) redialPeer(ctx context.Context, p *peer) {
	if p.redial != nil {
		return // already dialing
	}
	rctx, cancel := context.WithTimeout(ctx, r.co.peerTimeout())
	p.redial = cancel
	hello := Hello{Proto: ProtoVersion, Run: r.id, Rcvd: p.link.Rcvd()}
	r.co.logf("worker %d (%s) connection lost; redialing", p.i, p.addr)
	go func() {
		defer cancel()
		for rctx.Err() == nil {
			c, err := dialBackoff(rctx, r.co.Transport, p.addr, 0, 0)
			if err != nil {
				return
			}
			rcvd, err := handshake(c, hello)
			if err != nil {
				c.Close()
				// Pace the retry: a listener that accepts but rejects
				// the handshake would otherwise be hammered in a spin.
				select {
				case <-time.After(50 * time.Millisecond):
				case <-rctx.Done():
					return
				}
				continue
			}
			select {
			case r.events <- coEvent{i: p.i, conn: c, rcvd: rcvd}:
			case <-rctx.Done():
				c.Close()
			}
			return
		}
	}()
}

// startAll ships every worker its start bundle.
func (r *coRun) startAll() error {
	var err error
	if r.schedBin, err = r.co.encodedSchedule(r.s); err != nil {
		return fmt.Errorf("wire: encode schedule: %w", err)
	}
	if r.inputs, err = EncodeEnv(r.co.Runner.Inputs); err != nil {
		return fmt.Errorf("wire: encode inputs: %w", err)
	}
	for _, p := range r.peers {
		if err := r.sendStart(p, nil); err != nil {
			return fmt.Errorf("wire: starting worker %d: %w", p.i, err)
		}
	}
	return nil
}

// sendStart ships worker p its start bundle: its hosted mask, the
// design's external bindings, the run options and the worker address
// map it dials its mesh links from — plus, for a worker joining a run
// in flight, the resume plan of the era it enters.
func (r *coRun) sendStart(p *peer, plan *ResumeNote) error {
	hosted := make([]bool, r.s.Machine.NumPE())
	for _, pe := range p.pes {
		hosted[pe] = true
	}
	bundle := StartBundle{
		Run: r.id, Worker: p.i, Workers: len(r.peers),
		Hosted:     hosted,
		ExternalIn: r.flat.ExternalIn, ExternalOut: r.flat.ExternalOut,
		Opts:           OptsFor(r.co.Runner),
		HeartbeatEvery: int64(r.co.heartbeatEvery()), PeerTimeout: int64(r.co.peerTimeout()),
		FlushEvery: int64(r.co.flushEvery()),
		Peers:      r.addrs, PeerOf: r.peerOf,
		Plan: plan,
	}
	// The schedule and inputs ride out of band: they dominate the
	// bundle and would otherwise be base64 inside the JSON.
	return p.link.Send(TStart, encBlobEnvelope(encJSON(bundle), r.schedBin, r.inputs))
}

// broadcast sends a sequenced frame to every active worker. A write
// failure breaks the connection (the frame replays on reattach).
func (r *coRun) broadcast(t Type, payload []byte) {
	for _, p := range r.peers {
		if p.active() {
			if err := p.link.Send(t, payload); err != nil {
				r.breakConn(p, err)
			}
		}
	}
}

// heartbeat keeps attached links warm and declares silent workers dead
// (pending joiners included: their daemons time the coordinator out
// like any other, and a joiner dying mid-integration must be noticed).
func (r *coRun) heartbeat() error {
	now := time.Now()
	for _, p := range r.peers {
		if p.lost || p.drained {
			continue
		}
		if p.link.Conn() != nil {
			if err := p.link.SendRaw(Frame{Type: THeartbeat, Payload: encU64(0)}); err != nil {
				r.breakConn(p, err)
			}
		}
		if now.Sub(p.lastHeard) > r.co.peerTimeout() {
			if err := r.peerLost(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// peerLost declares a worker process dead: its processors join the dead
// set and the run recovers onto the survivors, exactly as if every
// processor it hosted had crashed.
func (r *coRun) peerLost(p *peer) error {
	p.lost = true
	if p.redial != nil {
		p.redial()
		p.redial = nil
	}
	p.link.Close()
	r.extra = append(r.extra, trace.Event{Kind: trace.PeerLost, At: r.now(), Peer: p.i, Note: "heartbeat lost"})
	r.co.logf("worker %d (%s) declared dead: no traffic for %v", p.i, p.addr, r.co.peerTimeout())
	// A fleet change waiting on this worker degrades to a plain crash
	// recovery; the control connection learns why.
	if p == r.draining {
		r.draining = nil
		if r.drainReply != nil {
			r.drainReply.reject(fmt.Sprintf("worker %d crashed while draining; recovering instead", p.i))
			r.drainReply = nil
		}
	}
	if p == r.joining {
		r.joining = nil
		if r.joinReply != nil {
			r.joinReply.reject(fmt.Sprintf("joining worker %s died before integration", p.addr))
			r.joinReply = nil
		}
	}
	for _, pe := range p.pes {
		r.dead[pe] = true
	}
	if r.allDead() {
		return fmt.Errorf("exec: all processors crashed")
	}
	switch r.state {
	case stPausing:
		// It was being waited on at the barrier: stop waiting.
		return r.checkParked()
	case stFinishing:
		// Its partial result is unrecoverable after the sessions
		// finished: the run cannot complete.
		return fmt.Errorf("wire: worker %d lost while collecting results", p.i)
	default:
		return r.startPause()
	}
}

func (r *coRun) allDead() bool {
	for _, d := range r.dead {
		if !d {
			return false
		}
	}
	return true
}

// handleFrame processes one frame from peer p. A non-nil result or
// error ends the run.
func (r *coRun) handleFrame(p *peer, f Frame) (bool, *exec.Result, error) {
	if !p.link.Accept(f) {
		p.link.SendRaw(Frame{Type: TAck, Payload: encU64(p.link.Rcvd())})
		return false, nil, nil
	}
	if f.Wid != 0 {
		// Batched: the next flushAll sends one cumulative ack.
		p.ackDue = true
	}
	switch f.Type {
	case TData:
		dest, err := MsgDest(f.Payload)
		if err != nil {
			return false, nil, err
		}
		if dest < 0 || dest >= len(r.peerOf) {
			return false, nil, fmt.Errorf("wire: data frame for unknown processor %d", dest)
		}
		q := r.peers[r.peerOf[dest]]
		if q.lost || q.drained {
			// The consumer's worker is gone; recovery will replan the
			// consumer, so the message can drop.
			return false, nil, nil
		}
		if err := q.link.SendData(TData, f.Payload, false); err != nil {
			// The frame is in q's outbox and replays on reattach.
			r.breakConn(q, err)
		}
		return false, nil, nil
	case TIdle:
		if r.state == stRunning {
			p.idle = true
			if err := r.checkAllIdle(); err != nil {
				return false, nil, err
			}
		}
		return false, nil, nil
	case TCrash:
		note, err := decJSON[CrashNote](f.Payload, "crash")
		if err != nil {
			return false, nil, err
		}
		return false, nil, r.handleCrash(note.PE)
	case TParked:
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return false, nil, err
		}
		note, err := decJSON[ParkedNote](js, "parked")
		if err != nil {
			return false, nil, err
		}
		st, err := note.state(blobs)
		if err != nil {
			return false, nil, fmt.Errorf("wire: worker %d checkpoint: %w", p.i, err)
		}
		if r.state == stFinishing {
			// A stale barrier reply racing the finish decision (e.g. a
			// replayed frame after a reconnect): the sessions already
			// got Finish, so there is no barrier to fold it into.
			r.co.logf("worker %d parked while finishing; ignoring stale barrier reply", p.i)
			return false, nil, nil
		}
		if r.state != stPausing {
			return false, nil, fmt.Errorf("wire: worker %d parked outside a pause", p.i)
		}
		p.parked = st
		for _, pe := range st.Dead {
			if pe >= 0 && pe < len(r.dead) {
				r.dead[pe] = true
			}
		}
		if r.allDead() {
			return false, nil, fmt.Errorf("exec: all processors crashed")
		}
		return false, nil, r.checkParked()
	case TResult:
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return false, nil, err
		}
		note, err := decJSON[ResultNote](js, "result")
		if err != nil {
			return false, nil, err
		}
		if len(blobs) >= 2 {
			note.Outputs, note.EventsBin = blobs[0], blobs[1]
		}
		p.result = &note
		return r.checkAllResults()
	case TError:
		note, _ := decJSON[ErrorNote](f.Payload, "error")
		return false, nil, fmt.Errorf("%s", note.Msg)
	case TAck:
		wid, err := decU64(f.Payload)
		if err != nil {
			return false, nil, err
		}
		p.link.Acked(wid)
		return false, nil, nil
	case THeartbeat, TPong:
		return false, nil, nil
	default:
		return false, nil, fmt.Errorf("wire: unexpected %s frame from worker %d", f.Type, p.i)
	}
}

// handleCrash starts (or folds into) a recovery after a processor
// crash.
func (r *coRun) handleCrash(pe int) error {
	if pe < 0 || pe >= len(r.dead) {
		return fmt.Errorf("wire: crash report for unknown processor %d", pe)
	}
	if r.dead[pe] {
		return nil
	}
	r.dead[pe] = true
	if r.allDead() {
		return fmt.Errorf("exec: all processors crashed")
	}
	switch r.state {
	case stPausing:
		// The pause barrier is already forming; the crash folds into
		// the plan when the parked states arrive.
		return nil
	case stFinishing:
		// The crash report raced the finish decision: every session
		// already received Finish, so a pause barrier could never
		// complete (the old fall-through to startPause hung here) and
		// the crashed processor's results are unrecoverable. Fail.
		return fmt.Errorf("wire: processor %d crashed while the run was finishing; its results are lost", pe)
	default:
		return r.startPause()
	}
}

// startPause orders every active worker to the recovery barrier. A
// drain target is asked to checkpoint: its Parked reply carries its
// full local state.
func (r *coRun) startPause() error {
	r.state = stPausing
	for _, p := range r.peers {
		if !p.active() {
			continue
		}
		p.parked = nil
		var payload []byte
		if p == r.draining {
			payload = encJSON(PauseNote{Checkpoint: true})
		}
		p.link.Send(TPause, payload)
	}
	return r.checkParked()
}

// checkParked completes the recovery once every active worker is at
// the barrier.
func (r *coRun) checkParked() error {
	for _, p := range r.peers {
		if p.active() && p.parked == nil {
			return nil
		}
	}
	return r.finishRecovery()
}

// finishRecovery plans the next era with exec.PlanResume and releases
// the workers into it. It finalizes whatever fleet change rode the
// barrier: a crash recovery (shrink), a graceful drain (planned shrink
// with the target's state re-homed through imports), a mid-run join
// (expand: every dead processor revives on the joiner), or a crash
// folded into either. What the era looks like is PlanResume's decision;
// this function only works out who is in it, commits the membership
// and does the I/O.
func (r *coRun) finishRecovery() error {
	dr, jn := r.draining, r.joining
	r.draining, r.joining = nil, nil

	// The dead mask of the new era: a drain retires the target's
	// processors; a join revives every dead one onto the joiner.
	b := exec.Barrier{Epoch: r.epoch + 1, Dead: append([]bool(nil), r.dead...),
		Cause: "recovery", Now: r.now(), VirtualTime: r.co.Runner.VirtualTime}
	var revived []int
	if jn != nil {
		b.Cause = "join"
		for pe, d := range r.dead {
			if d {
				b.Dead[pe] = false
				revived = append(revived, pe)
			}
		}
	}
	if dr != nil {
		b.Cause, b.Drained = "drain", dr.parked
		for _, pe := range dr.pes {
			b.Dead[pe] = true
		}
	}
	for _, p := range r.peers {
		if p.active() && p != dr {
			b.Parked = append(b.Parked, p.parked)
		}
	}
	plan, events, err := exec.PlanResume(r.s, r.flat, b)
	if err != nil {
		return err
	}
	r.extra = append(r.extra, events...)

	// Commit the membership change.
	r.dead, r.epoch = b.Dead, b.Epoch
	if jn != nil {
		jn.pending = false
		jn.pes = revived
		for _, pe := range revived {
			r.peerOf[pe] = jn.i
		}
	}

	note, blobs, err := resumeNote(plan)
	if err != nil {
		return err
	}
	if jn != nil {
		note.Peers, note.PeerOf = r.addrs, r.peerOf
	}
	r.co.logf("%s: %d slots replanned (epoch %d)", b.Cause, len(plan.Slots), r.epoch)
	payload := encBlobEnvelope(encJSON(note), blobs...)
	for _, p := range r.peers {
		if p.active() && p != dr && p != jn {
			p.idle = false
			p.link.Send(TResume, payload)
		}
	}

	if dr != nil {
		// The target departs with everything handed over: its print
		// lines and trace events join the saved partials, the goodbye
		// lets it (and, through its mesh goodbyes, its peers) tear down
		// immediately — no timeout anywhere.
		r.saved = append(r.saved, &exec.Partial{Printed: dr.parked.Printed,
			PrintedPE: dr.parked.PrintedPE, Events: dr.parked.Events})
		dr.drained = true
		dr.idle = false
		dr.link.Send(TBye, nil)
		at := b.Now
		if b.VirtualTime {
			at = plan.Clock
		}
		r.extra = append(r.extra, trace.Event{Kind: trace.WorkerDrained, At: at,
			Peer: dr.i, Note: dr.addr})
		r.co.logf("worker %d (%s) drained: %d results re-homed (epoch %d)", dr.i, dr.addr, len(plan.Imports), r.epoch)
		if r.drainReply != nil {
			r.drainReply.welcome()
			r.drainReply = nil
		}
	}
	if jn != nil {
		// Imports target survivor processors, never the joiner's fresh
		// ones; membership already rides the bundle's own Peers/PeerOf.
		note.Imports, note.Peers, note.PeerOf = nil, nil, nil
		if err := r.sendStart(jn, &note); err != nil {
			return fmt.Errorf("wire: starting joined worker %d: %w", jn.i, err)
		}
		r.co.logf("worker %d (%s) joined: hosting %d revived processors (epoch %d)", jn.i, jn.addr, len(revived), r.epoch)
		if r.joinReply != nil {
			r.joinReply.welcome()
			r.joinReply = nil
		}
	}
	r.state = stRunning
	return nil
}

// handleControl processes one fleet-elasticity request on the central
// loop: a join announce (validate, then dial the worker off-loop), a
// completed join dial (integrate at a barrier), or a drain order.
func (r *coRun) handleControl(ctx context.Context, req *ctlReq) error {
	switch {
	case req.join != nil:
		return r.handleJoinAnnounce(ctx, req)
	case req.drain != nil:
		return r.handleDrain(req)
	default:
		return r.handleJoinDialed(req)
	}
}

func (r *coRun) handleJoinAnnounce(ctx context.Context, req *ctlReq) error {
	addr := req.join.Addr
	// Idempotence: an announce from an address already serving the run
	// is acknowledged without change (announce loops retry until
	// welcomed, and a Welcome may be lost).
	for _, p := range r.peers {
		if p.active() && p.addr == addr {
			req.reply.welcome()
			return nil
		}
	}
	if r.state == stFinishing {
		// Explicit rejection: a worker arriving while the run is
		// finishing must not enter the processor map — there is nothing
		// left to start it with.
		req.reply.reject("run is finishing; not accepting joins")
		return nil
	}
	if r.state != stRunning || r.draining != nil || r.joining != nil || r.joinAddr != "" {
		req.reply.reject("a recovery or fleet change is in progress; retry")
		return nil
	}
	free := false
	for _, d := range r.dead {
		if d {
			free = true
			break
		}
	}
	if !free {
		req.reply.reject("no free capacity: every processor is live")
		return nil
	}
	// Dial the announced worker off-loop; the result re-enters as a
	// control event and the join is validated again before integration.
	r.joinAddr = addr
	reply := req.reply
	go func() {
		dctx, cancel := context.WithTimeout(ctx, r.co.connectTimeout())
		defer cancel()
		c, err := dialBackoff(dctx, r.co.Transport, addr, 0, 0)
		if err == nil {
			if _, herr := handshake(c, Hello{Proto: ProtoVersion, Run: r.id}); herr != nil {
				c.Close()
				c, err = nil, herr
			}
		}
		select {
		case r.events <- coEvent{ctl: &ctlReq{dialed: c, err: err, addr: addr, reply: reply}}:
		case <-ctx.Done():
			if c != nil {
				c.Close()
			}
		}
	}()
	return nil
}

func (r *coRun) handleJoinDialed(req *ctlReq) error {
	r.joinAddr = ""
	if req.err != nil {
		req.reply.reject(fmt.Sprintf("cannot dial announced worker %s: %v", req.addr, req.err))
		return nil
	}
	abort := ""
	switch {
	case r.state == stFinishing:
		abort = "run is finishing; not accepting joins"
	case r.state != stRunning || r.draining != nil || r.joining != nil:
		abort = "a recovery started while the join was connecting; retry"
	}
	if abort == "" {
		free := false
		for _, d := range r.dead {
			if d {
				free = true
				break
			}
		}
		if !free {
			abort = "no free capacity: every processor is live"
		}
	}
	if abort != "" {
		req.dialed.Close()
		req.reply.reject(abort)
		return nil
	}
	p := &peer{i: len(r.peers), addr: req.addr, pending: true, lastHeard: time.Now()}
	p.link = NewLink(req.dialed)
	p.link.SetMaxOutbox(r.co.MaxOutbox)
	r.peers = append(r.peers, p)
	r.addrs = append(r.addrs, req.addr)
	r.joining = p
	r.joinReply = req.reply
	r.extra = append(r.extra, trace.Event{Kind: trace.PeerConnected, At: r.now(), Peer: p.i, Note: "join"})
	r.co.logf("worker %d (%s) joining; pausing for expand replan", p.i, p.addr)
	r.startReader(r.ctx, p)
	return r.startPause()
}

func (r *coRun) handleDrain(req *ctlReq) error {
	var target *peer
	for _, p := range r.peers {
		if req.drain.Worker >= 0 && p.i == req.drain.Worker {
			target = p
		}
		if req.drain.Worker < 0 && req.drain.Addr != "" && p.addr == req.drain.Addr && p.active() {
			target = p
		}
	}
	switch {
	case target == nil:
		req.reply.reject("no such worker")
		return nil
	case target.drained:
		req.reply.reject(fmt.Sprintf("worker %d already drained", target.i))
		return nil
	case target.lost:
		req.reply.reject(fmt.Sprintf("worker %d already lost", target.i))
		return nil
	case target.pending:
		req.reply.reject(fmt.Sprintf("worker %d still joining; retry", target.i))
		return nil
	case r.state == stFinishing:
		req.reply.reject("run is finishing; nothing to drain")
		return nil
	case r.state != stRunning || r.draining != nil || r.joining != nil || r.joinAddr != "":
		req.reply.reject("a recovery or fleet change is in progress; retry")
		return nil
	}
	min := r.co.MinWorkers
	if min < 1 {
		min = 1
	}
	if r.liveWorkers()-1 < min {
		req.reply.reject(fmt.Sprintf("drain would leave %d workers; the minimum is %d", r.liveWorkers()-1, min))
		return nil
	}
	remaining := 0
	for pe, d := range r.dead {
		if !d && r.peerOf[pe] != target.i {
			remaining++
		}
	}
	if remaining == 0 {
		req.reply.reject("drain would leave no live processors")
		return nil
	}
	r.draining = target
	r.drainReply = req.reply
	r.co.logf("worker %d (%s) draining; pausing for checkpoint handover", target.i, target.addr)
	return r.startPause()
}

// acceptControl accepts fleet-control connections and posts their
// first frame to the central loop. The listener closes with the run.
func (r *coRun) acceptControl(ctx context.Context, lis Listener) {
	for {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		go r.controlConn(ctx, c)
	}
}

func (r *coRun) controlConn(ctx context.Context, c Conn) {
	// Bound the first read: a connection that never sends its request
	// must not linger past the run.
	tm := time.AfterFunc(10*time.Second, func() { c.Close() })
	f, err := c.ReadFrame()
	tm.Stop()
	if err != nil {
		c.Close()
		return
	}
	req := &ctlReq{reply: connReply{c}}
	switch f.Type {
	case TJoin:
		n, err := decJSON[JoinNote](f.Payload, "join")
		if err != nil || n.Addr == "" {
			rejectConn(c, "bad join request: missing worker address")
			return
		}
		req.join = &n
	case TDrain:
		n, err := decJSON[DrainNote](f.Payload, "drain")
		if err != nil {
			rejectConn(c, "bad drain request")
			return
		}
		req.drain = &n
	default:
		rejectConn(c, fmt.Sprintf("unexpected %s frame on a control connection", f.Type))
		return
	}
	select {
	case r.events <- coEvent{ctl: req}:
	case <-ctx.Done():
		c.Close()
	}
}

// submitCtl posts a fleet-elasticity request to the run in flight and
// waits for its verdict. Used by the fleet control plane, which owns
// the persistent control listener and forwards joins and drains to
// every active run instead of lending each run a listener of its own.
func (co *Coordinator) submitCtl(ctx context.Context, req *ctlReq) error {
	co.ctlMu.Lock()
	ch, done := co.ctlCh, co.ctlDone
	co.ctlMu.Unlock()
	if ch == nil {
		return fmt.Errorf("wire: no run in flight")
	}
	reply := make(chanReply, 1)
	req.reply = reply
	select {
	case ch <- coEvent{ctl: req}:
	case <-done:
		return fmt.Errorf("wire: run ended before the fleet change completed")
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-done:
		return fmt.Errorf("wire: run ended before the fleet change completed")
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitJoin offers the worker daemon at addr to the run in flight,
// exactly as a TJoin announce on the run's own control listener would.
// It returns nil once the worker serves the run (or already did), or
// the run's rejection reason.
func (co *Coordinator) SubmitJoin(ctx context.Context, addr string) error {
	return co.submitCtl(ctx, &ctlReq{join: &JoinNote{Addr: addr}})
}

// SubmitDrain asks the run in flight to gracefully evacuate a worker:
// by index when worker >= 0, else by its listen address. It returns nil
// once the worker departed with its state handed over, or the run's
// rejection reason.
func (co *Coordinator) SubmitDrain(ctx context.Context, worker int, addr string) error {
	return co.submitCtl(ctx, &ctlReq{drain: &DrainNote{Worker: worker, Addr: addr}})
}

// checkAllIdle finishes the run once every surviving worker reports its
// hosted processors idle.
func (r *coRun) checkAllIdle() error {
	for _, p := range r.peers {
		if p.active() && !p.idle {
			return nil
		}
	}
	r.state = stFinishing
	r.broadcast(TFinish, nil)
	return nil
}

// checkAllResults assembles the final result once every surviving
// worker delivered its partial.
func (r *coRun) checkAllResults() (bool, *exec.Result, error) {
	for _, p := range r.peers {
		if p.active() && p.result == nil {
			return false, nil, nil
		}
	}
	// Drained workers' handed-over print lines and trace events merge
	// ahead of the survivors' partials; PE tags keep print order stable.
	partials := append([]*exec.Partial(nil), r.saved...)
	for _, p := range r.peers {
		if !p.active() {
			continue
		}
		outputs, err := DecodeEnv(p.result.Outputs)
		if err != nil {
			return false, nil, fmt.Errorf("wire: worker %d result: %w", p.i, err)
		}
		events, err := DecodeEvents(p.result.EventsBin)
		if err != nil {
			return false, nil, fmt.Errorf("wire: worker %d result: %w", p.i, err)
		}
		partials = append(partials, &exec.Partial{
			Outputs: outputs, Exports: p.result.Exports,
			Printed: p.result.Printed, PrintedPE: p.result.PrintedPE,
			Events: events,
		})
	}
	outputs, printed, err := exec.MergePartials(partials...)
	if err != nil {
		return false, nil, err
	}

	r.broadcast(TBye, nil)
	tr := &trace.Trace{Label: "run:" + r.s.Algorithm}
	for _, p := range partials {
		tr.Events = append(tr.Events, p.Events...)
	}
	at := r.now()
	for _, p := range r.peers {
		in, out := p.link.Stats()
		r.extra = append(r.extra, trace.Event{Kind: trace.WireBytes, At: at,
			Peer: p.i, Bytes: in + out, Note: p.addr})
	}
	tr.Events = append(tr.Events, r.extra...)
	tr.Sort()
	return true, &exec.Result{Outputs: outputs, Printed: printed, Trace: tr,
		Elapsed: time.Since(r.start)}, nil
}

// Calibrate measures round-trip latency to the first worker with empty
// and 4096-word ping payloads and derives a machine.Calibration
// (message startup cost and per-word transfer time): the paper's
// machine-model parameters measured from the actual wire.
func (co *Coordinator) Calibrate(ctx context.Context, probes int) (machine.Calibration, error) {
	if probes <= 0 {
		probes = 8
	}
	var cal machine.Calibration
	if len(co.Addrs) == 0 {
		return cal, fmt.Errorf("wire: no worker address to calibrate against")
	}
	dctx, cancel := context.WithTimeout(ctx, co.connectTimeout())
	defer cancel()
	c, err := dialBackoff(dctx, co.Transport, co.Addrs[0], 0, 0)
	if err != nil {
		return cal, err
	}
	defer c.Close()
	if _, err := handshake(c, Hello{Proto: ProtoVersion}); err != nil {
		return cal, err
	}

	// One reader goroutine feeds every probe; per-probe deadlines live
	// in minRTT (a lost pong must not spin the loop forever).
	frames := make(chan Frame, 16)
	rerr := make(chan error, 1)
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			f, err := c.ReadFrame()
			if err != nil {
				rerr <- err
				return
			}
			select {
			case frames <- f:
			case <-done:
				return
			}
		}
	}()

	const words = 4096
	timeout := co.peerTimeout()
	small, err := minRTT(c, probes, nil, frames, rerr, timeout)
	if err != nil {
		return cal, err
	}
	large, err := minRTT(c, probes, make([]byte, words*8), frames, rerr, timeout)
	if err != nil {
		return cal, err
	}
	if err := c.WriteFrame(Frame{Type: TBye, Wid: 1}); err != nil {
		return cal, fmt.Errorf("wire: calibration goodbye: %w", err)
	}

	// One-way cost is half the round trip; the model's units are
	// microseconds (per message, and per 8-byte word).
	cal.MsgStartup = machine.Time(small / 2 / time.Microsecond)
	if large > small {
		cal.WordTime = machine.Time((large - small) / 2 / words / time.Microsecond)
	}
	if cal.MsgStartup == 0 && cal.WordTime == 0 {
		// A wire faster than the model's microsecond resolution (the
		// in-memory transport, typically) still costs one tick.
		cal.MsgStartup = 1
	}
	return cal, nil
}

// minRTT measures the fastest of n ping round trips with the given
// payload. Each probe is bounded by timeout: a lost pong (or a worker
// that only ever sends heartbeats) fails the calibration instead of
// spinning the receive loop forever.
func minRTT(c Conn, n int, payload []byte, frames <-chan Frame, rerr <-chan error, timeout time.Duration) (time.Duration, error) {
	best := time.Duration(0)
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.WriteFrame(Frame{Type: TPing, Payload: payload}); err != nil {
			return 0, err
		}
		if !deadline.Stop() {
			select {
			case <-deadline.C:
			default:
			}
		}
		deadline.Reset(timeout)
	probe:
		for {
			select {
			case f := <-frames:
				if f.Type == TPong {
					break probe
				}
				// Heartbeats and acks interleave with pongs; skip them.
			case err := <-rerr:
				return 0, err
			case <-deadline.C:
				return 0, fmt.Errorf("wire: calibration probe %d timed out after %v (no pong)", i, timeout)
			}
		}
		if rtt := time.Since(t0); best == 0 || rtt < best {
			best = rtt
		}
	}
	return best, nil
}
