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
	// retry, stall timeout, virtual time) and the run inputs.
	Runner *exec.Runner

	// HeartbeatEvery is the keepalive cadence (default 250ms);
	// PeerTimeout the silence budget after which a worker is declared
	// dead (default 3s).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration

	// Mesh is ignored: the mesh is always on. The field goes with
	// ROADMAP 3(d), once bench/layers.go:513 stops setting it.
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

	Logf func(format string, args ...any)

	// fleet is set on a fleet's coordinators: connections are leased
	// from it and parked with it, and a member that cannot be dialled is
	// dropped from it. ships is the shipment memo: the one a fleet's runs
	// share, or a bare coordinator's own, hit when it runs again.
	fleet *Fleet
	ships *shipments

	// The run in flight installs its event channel here so
	// SubmitJoin/SubmitDrain can reach it: from its own control
	// listener, and from the fleet's always-up control plane.
	ctlMu   sync.Mutex
	ctlCh   chan coEvent
	ctlDone chan struct{}
}

// runSeq makes run IDs collision-proof within a process: concurrent
// runs of the same algorithm can start in the same nanosecond, and the
// run ID is the key every worker daemon routes by.
var runSeq atomic.Uint64

func (co *Coordinator) logf(format string, args ...any) {
	if co.Logf != nil {
		co.Logf(format, args...)
	}
}

// orDefault is d when it is set (positive), else def.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

func (co *Coordinator) heartbeatEvery() time.Duration {
	return orDefault(co.HeartbeatEvery, 250*time.Millisecond)
}
func (co *Coordinator) peerTimeout() time.Duration { return orDefault(co.PeerTimeout, 3*time.Second) }

// connectTimeout bounds a bare coordinator's initial dials and a
// joiner's, and a calibration's.
const connectTimeout = 10 * time.Second

// goodbyeWait bounds how long a finished fleet run waits for its
// workers to answer the goodbye before it gives their connections up.
// The answers normally cross the result's assembly and cost nothing.
const goodbyeWait = 100 * time.Millisecond

// peer is the coordinator's connection to one worker process. What the
// worker is doing in the run — idle, parked, drained — is the
// lifecycle's business; this is only the wire to it.
type peer struct {
	i         int
	addr      string
	link      *Link
	have      bool // the daemon holds the schedule: the start bundle goes without it
	gone      bool // lost, or dismissed with a goodbye: nothing more goes either way
	lastHeard time.Time
	// parted closes when the worker answers the goodbye: its connection
	// is idle again, fit for another run.
	parted chan struct{}
	redial context.CancelFunc // non-nil while a reconnect is in flight
}

// coEvent is one occurrence on the coordinator's central loop: a frame
// from peer i, a connection error, a successful reconnect, or a
// lifecycle event from outside the fleet's links (a join offer or drain
// request; a finished join dial, with its handshaken connection).
type coEvent struct {
	i    int
	f    Frame
	err  error
	conn Conn   // reattach, or join dial: fresh connection
	rcvd uint64 // reattach: worker's receive watermark
	ctl  exec.Event
}

// coRun is one distributed run: the I/O driver of its exec.Lifecycle.
// It connects, pumps frames into events and effects into frames,
// redials, turns heartbeat silence into Lost, and relays data for
// worker pairs whose mesh link is not up. It decides nothing about the
// run.
type coRun struct {
	co     *Coordinator
	s      *sched.Schedule
	flat   *graph.Flat
	id     string
	lc     *exec.Lifecycle
	peers  []*peer
	addrs  []string // worker listen addresses by index (grows on join)
	events chan coEvent
	start  time.Time
	extra  []trace.Event // connection-level trace events: connects, byte counts
	ctx    context.Context
	// ship is the encoded schedule a start bundle carries to a daemon
	// that does not hold it, inputs the run inputs every one carries.
	ship   *shipment
	inputs []byte
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
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r := &coRun{
		co: co, s: s, flat: flat,
		id:     fmt.Sprintf("%s-%d-%d", s.Algorithm, time.Now().UnixNano(), runSeq.Add(1)),
		addrs:  append([]string(nil), co.Addrs[:workers]...),
		events: make(chan coEvent, 256),
		start:  time.Now(),
	}
	r.lc = exec.NewLifecycle(s, flat, co.Runner, r.addrs, peerOf, co.MinWorkers)
	for i, addr := range r.addrs {
		r.peers = append(r.peers, &peer{i: i, addr: addr, lastHeard: time.Now(), parted: make(chan struct{})})
	}
	return r.run(ctx)
}

// now is the coordinator event timestamp: microseconds since run start.
func (r *coRun) now() machine.Time {
	return machine.Time(time.Since(r.start) / time.Microsecond)
}

// run connects, starts, and drives the central loop to completion.
func (r *coRun) run(ctx context.Context) (*exec.Result, error) {
	r.ctx = ctx
	// Expose the event channel for joins and drains, the run's own and
	// fleet-forwarded ones; done releases a submitter whose request was
	// still unanswered when the run ended.
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
	}()

	if r.co.ships == nil {
		r.co.ships = new(shipments)
	}
	var err error
	if r.ship, err = r.co.ships.of(r.s, r.flat); err != nil {
		return nil, err
	}
	if r.inputs, err = EncodeEnv(r.co.Runner.Inputs); err != nil {
		return nil, fmt.Errorf("wire: encode inputs: %w", err)
	}
	if err := r.connectAll(); err != nil {
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
		go r.serveControl(lis)
	}
	if err := r.startAll(); err != nil {
		return nil, err
	}

	hb := time.NewTicker(r.co.heartbeatEvery())
	defer hb.Stop()
	handled := 0
	for {
		var res *exec.Result
		var err error
		select {
		case <-ctx.Done():
			for _, p := range r.peers {
				if !p.gone {
					r.send(p, TError, encJSON(ErrorNote{Msg: "run cancelled by coordinator"}))
				}
			}
			return nil, fmt.Errorf("wire: run cancelled: %w", ctx.Err())
		case <-hb.C:
			r.flushAll()
			res, err = r.heartbeat()
		case ev := <-r.events:
			if ev.ctl != nil {
				res, err = r.step(ev.ctl, ev.conn)
			} else if p := r.peers[ev.i]; !p.gone { // a departed worker's late traffic is ignored
				res, err = r.peerEvent(p, ev)
			}
			// Flush coalesced relays and owed acks when the inbound queue
			// drains (and periodically inside long bursts, so a sender's
			// outbox doesn't wait on a saturated loop).
			if handled++; len(r.events) == 0 || handled >= 64 {
				handled = 0
				r.flushAll()
			}
		}
		if res != nil || err != nil {
			return res, err
		}
	}
}

// peerEvent handles what worker p's connection produced: a fresh
// connection after a redial, a break, or a frame.
func (r *coRun) peerEvent(p *peer, ev coEvent) (*exec.Result, error) {
	switch {
	case ev.conn != nil:
		p.redial = nil
		if err := p.link.Reattach(ev.conn, ev.rcvd); err != nil {
			p.link.Detach()
			r.redialPeer(p)
			break
		}
		p.lastHeard = time.Now()
		r.extra = append(r.extra, trace.Event{Kind: trace.PeerConnected, At: r.now(), Peer: p.i, Note: "reconnect"})
		r.co.logf("worker %d (%s) reconnected", p.i, p.addr)
		r.startReader(p)
	case ev.err != nil:
		// Connection broke: keep the run alive and redial until the
		// heartbeat budget declares the worker dead.
		p.link.Detach()
		r.redialPeer(p)
	default:
		p.lastHeard = time.Now()
		return r.handleFrame(p, ev.f)
	}
	return nil, nil
}

// flushAll drives every peer's coalescing buffer and owed ack onto the
// wire.
func (r *coRun) flushAll() {
	for _, p := range r.peers {
		if !p.gone {
			if err := p.link.Flush(); err != nil {
				r.breakConn(p, err)
			}
		}
	}
}

// breakConn treats a write failure on an attached connection as a
// connection break: detach now and redial, instead of waiting for the
// reader goroutine to notice much later. Sequenced frames already sit
// in the link outbox and replay on reattach.
func (r *coRun) breakConn(p *peer, err error) {
	if p.gone || errors.Is(err, ErrLinkDetached) {
		return
	}
	r.co.logf("worker %d (%s) write failed (%v); reconnecting", p.i, p.addr, err)
	p.link.Detach()
	r.redialPeer(p)
}

// dial opens this run on the worker daemon at addr and reports whether
// the daemon holds the run's schedule. A fleet's run takes a parked
// connection when one answers the Hello, and otherwise dials once; a
// bare coordinator, started beside its workers, keeps dialling until
// they are up.
func (r *coRun) dial(ctx context.Context, addr string) (c Conn, have bool, err error) {
	hello := Hello{Proto: ProtoVersion, Run: r.id, Digest: r.ship.digest}
	if f := r.co.fleet; f != nil {
		if c = f.lease(addr); c != nil {
			if w, err := handshake(c, hello); err == nil {
				return c, w.Have, nil
			}
			c.Close() // the daemon went away, or closes what it finished: dial
		}
		c, err = f.connect(ctx, addr)
	} else {
		dctx, cancel := context.WithTimeout(ctx, connectTimeout)
		defer cancel()
		c, err = dialBackoff(dctx, r.co.Transport, addr, 0, 0)
	}
	if err != nil {
		return nil, false, err
	}
	w, err := handshake(c, hello)
	if err != nil {
		c.Close()
		return nil, false, err
	}
	return c, w.Have, nil
}

// connectAll dials and handshakes every worker.
func (r *coRun) connectAll() error {
	type dialRes struct {
		i    int
		conn Conn
		have bool
		err  error
	}
	ch := make(chan dialRes, len(r.peers))
	for _, p := range r.peers {
		go func(p *peer) {
			c, have, err := r.dial(r.ctx, p.addr)
			ch <- dialRes{i: p.i, conn: c, have: have, err: err}
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
		p.link, p.have = NewLink(dr.conn), dr.have
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
		r.startReader(p)
	}
	return nil
}

// handshake sends Hello on a connection that awaits one and expects a
// Welcome speaking this protocol version: it carries the accepting
// side's receive watermark (what a reconnect replays its outbox from)
// and whether it holds the schedule the Hello named. A rejection
// surfaces the other side's reason.
func handshake(c Conn, h Hello) (Welcome, error) {
	if err := c.WriteFrame(Frame{Type: THello, Payload: encJSON(h)}); err != nil {
		return Welcome{}, err
	}
	f, err := c.ReadFrame()
	if err != nil {
		return Welcome{}, err
	}
	switch f.Type {
	case TWelcome:
		w, err := decJSON[Welcome](f.Payload, "welcome")
		if err == nil && w.Proto != ProtoVersion {
			err = fmt.Errorf("wire: worker speaks protocol %d, need %d", w.Proto, ProtoVersion)
		}
		return w, err
	case TError:
		n, _ := decJSON[ErrorNote](f.Payload, "error")
		return Welcome{}, fmt.Errorf("wire: worker rejected handshake: %s", n.Msg)
	default:
		return Welcome{}, fmt.Errorf("wire: expected welcome, got %s", f.Type)
	}
}

// startReader pumps frames from the peer's current connection into the
// central loop. It stops at the worker's answer to the goodbye, the
// last frame of the run: what follows on the connection is another
// run's.
func (r *coRun) startReader(p *peer) {
	ctx, c := r.ctx, p.link.Conn()
	go func() {
		for {
			f, err := c.ReadFrame()
			if err == nil && f.Type == TBye {
				close(p.parted)
				return
			}
			select {
			case r.events <- coEvent{i: p.i, f: f, err: err}:
			case <-ctx.Done():
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// redialPeer reconnects to a worker in the background. The attempt is
// bounded by the peer timeout: past it the heartbeat check declares the
// worker lost and cancels the attempt.
func (r *coRun) redialPeer(p *peer) {
	if p.redial != nil {
		return // already dialing
	}
	rctx, cancel := context.WithTimeout(r.ctx, r.co.peerTimeout())
	p.redial = cancel
	hello := Hello{Proto: ProtoVersion, Run: r.id, Rcvd: p.link.Rcvd(), Digest: r.ship.digest}
	r.co.logf("worker %d (%s) connection lost; redialing", p.i, p.addr)
	go func() {
		defer cancel()
		for rctx.Err() == nil {
			c, err := dialBackoff(rctx, r.co.Transport, p.addr, 0, 0)
			if err != nil {
				return
			}
			w, err := handshake(c, hello)
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
			case r.events <- coEvent{i: p.i, conn: c, rcvd: w.Rcvd}:
			case <-rctx.Done():
				c.Close()
			}
			return
		}
	}()
}

// startAll ships every worker its start bundle.
func (r *coRun) startAll() error {
	for _, p := range r.peers {
		if err := r.sendStart(p, nil); err != nil {
			return fmt.Errorf("wire: starting worker %d: %w", p.i, err)
		}
	}
	return nil
}

// sendStart ships worker p its start bundle: its hosted mask, the run
// options and the worker address map it dials its mesh links from —
// plus, for a worker joining a run in flight, the resume plan of the era
// it enters, and for a daemon that does not hold the schedule, the
// schedule and the design's external bindings.
func (r *coRun) sendStart(p *peer, plan *ResumeNote) error {
	peerOf := r.lc.PeerOf()
	hosted := make([]bool, len(peerOf))
	for pe, w := range peerOf {
		hosted[pe] = w == p.i
	}
	bundle := StartBundle{
		Run: r.id, Worker: p.i, Workers: len(r.peers),
		Hosted:         hosted,
		Opts:           OptsFor(r.co.Runner),
		HeartbeatEvery: int64(r.co.heartbeatEvery()), PeerTimeout: int64(r.co.peerTimeout()),
		Peers: r.addrs, PeerOf: peerOf,
		Plan: plan,
	}
	var bin []byte
	if !p.have {
		bin = r.ship.bin
		bundle.ExternalIn, bundle.ExternalOut = r.flat.ExternalIn, r.flat.ExternalOut
	}
	// The schedule and inputs ride out of band: they dominate the
	// bundle and would otherwise be base64 inside the JSON.
	return p.link.Send(TStart, encBlobEnvelope(encJSON(bundle), bin, r.inputs))
}

// send ships a sequenced frame to worker p. A write failure breaks the
// connection; the frame sits in the outbox and replays on reattach.
func (r *coRun) send(p *peer, t Type, payload []byte) {
	if err := p.link.Send(t, payload); err != nil {
		r.breakConn(p, err)
	}
}

// heartbeat keeps attached links warm and reports silent workers to
// the lifecycle as lost (joiners awaiting integration included: their
// daemons time the coordinator out like any other, and one dying
// mid-integration must be noticed).
func (r *coRun) heartbeat() (*exec.Result, error) {
	now := time.Now()
	for _, p := range r.peers {
		if p.gone {
			continue
		}
		if p.link.Conn() != nil {
			if err := p.link.SendRaw(Frame{Type: THeartbeat, Payload: encU64(0)}); err != nil {
				r.breakConn(p, err)
			}
		}
		if now.Sub(p.lastHeard) > r.co.peerTimeout() {
			r.co.logf("worker %d (%s) declared dead: no traffic for %v", p.i, p.addr, r.co.peerTimeout())
			r.dismiss(p)
			if res, err := r.step(exec.Lost{W: p.i}, nil); res != nil || err != nil {
				return res, err
			}
		}
	}
	return nil, nil
}

// dismiss ends the conversation with worker p for good.
func (r *coRun) dismiss(p *peer) {
	p.gone = true
	if p.redial != nil {
		p.redial()
		p.redial = nil
	}
	p.link.Close()
}

// handleFrame turns one frame from peer p into a lifecycle event — or,
// for a data frame whose mesh link was not up, relays it. A non-nil
// result or error ends the run.
func (r *coRun) handleFrame(p *peer, f Frame) (*exec.Result, error) {
	if handle, _ := p.link.Receive(f); !handle {
		return nil, nil
	}
	switch f.Type {
	case TData:
		dest, err := MsgDest(f.Payload)
		if err != nil {
			return nil, err
		}
		w, there := r.lc.Home(dest)
		if w < 0 {
			return nil, fmt.Errorf("wire: data frame for unknown processor %d", dest)
		}
		// A consumer whose worker is gone will be replanned by the
		// recovery, so its message can drop.
		if q := r.peers[w]; there {
			if err := q.link.SendData(TData, f.Payload, false); err != nil {
				// The frame is in q's outbox and replays on reattach.
				r.breakConn(q, err)
			}
		}
		return nil, nil
	case TIdle:
		return r.step(exec.Idle{W: p.i}, nil)
	case TCrash:
		note, err := decJSON[CrashNote](f.Payload, "crash")
		if err != nil {
			return nil, err
		}
		return r.step(exec.Crash{PE: note.PE}, nil)
	case TParked:
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return nil, err
		}
		note, err := decJSON[ParkedNote](js, "parked")
		if err != nil {
			return nil, err
		}
		st, err := note.state(blobs)
		if err != nil {
			return nil, fmt.Errorf("wire: worker %d checkpoint: %w", p.i, err)
		}
		return r.step(exec.Parked{W: p.i, State: st}, nil)
	case TResult:
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return nil, err
		}
		note, err := decJSON[ResultNote](js, "result")
		if err != nil {
			return nil, err
		}
		if len(blobs) >= 2 {
			note.Outputs, note.EventsBin = blobs[0], blobs[1]
		}
		part := &exec.Partial{Exports: note.Exports, Printed: note.Printed, PrintedPE: note.PrintedPE}
		if part.Outputs, err = DecodeEnv(note.Outputs); err == nil {
			part.Events, err = DecodeEvents(note.EventsBin)
		}
		if err != nil {
			return nil, fmt.Errorf("wire: worker %d result: %w", p.i, err)
		}
		return r.step(exec.Returned{W: p.i, Partial: part}, nil)
	case TError:
		note, _ := decJSON[ErrorNote](f.Payload, "error")
		return nil, fmt.Errorf("%s", note.Msg)
	case THeartbeat, TPong:
		return nil, nil
	default:
		return nil, fmt.Errorf("wire: unexpected %s frame from worker %d", f.Type, p.i)
	}
}

// step feeds one event to the lifecycle and carries out the effects.
// dialed is the handshaken connection a JoinDialed event reports: it
// becomes the new member's link if the lifecycle admitted one, and is
// closed otherwise.
func (r *coRun) step(ev exec.Event, dialed Conn) (*exec.Result, error) {
	effects, err := r.lc.Step(ev, r.now())
	if dialed != nil && r.lc.Members() == len(r.peers) {
		dialed.Close()
	} else if dialed != nil {
		p := &peer{i: len(r.peers), addr: ev.(exec.JoinDialed).Addr, link: NewLink(dialed), lastHeard: time.Now(), parted: make(chan struct{})}
		r.peers, r.addrs = append(r.peers, p), append(r.addrs, p.addr)
		r.co.logf("worker %d (%s) joining; pausing for expand replan", p.i, p.addr)
		r.startReader(p)
	}
	var resume []byte // one barrier's plan, encoded once for all survivors
	for _, ef := range effects {
		switch e := ef.(type) {
		case exec.Pause:
			var payload []byte
			if e.Checkpoint {
				payload = encJSON(PauseNote{Checkpoint: true})
			}
			r.send(r.peers[e.W], TPause, payload)
		case exec.Resume:
			if resume == nil {
				note, blobs, err := resumeNote(e.Plan)
				if err != nil {
					return nil, err
				}
				// Membership rides every resume: a no-op unless a join
				// grew the address list and re-homed revived processors.
				note.Peers, note.PeerOf = r.addrs, r.lc.PeerOf()
				resume = encBlobEnvelope(encJSON(note), blobs...)
				r.co.logf("barrier: %d slots replanned (epoch %d)", len(e.Plan.Slots), e.Plan.Epoch)
			}
			r.send(r.peers[e.W], TResume, resume)
		case exec.Start:
			// Imports target survivor processors, never the joiner's fresh
			// ones; membership rides the bundle's own Peers/PeerOf.
			plan := *e.Plan
			plan.Imports = nil
			note, _, _ := resumeNote(&plan)
			if err := r.sendStart(r.peers[e.W], &note); err != nil {
				return nil, fmt.Errorf("wire: starting joined worker %d: %w", e.W, err)
			}
			r.co.logf("worker %d (%s) joined (epoch %d)", e.W, r.peers[e.W].addr, e.Plan.Epoch)
		case exec.Finish:
			r.send(r.peers[e.W], TFinish, nil)
		case exec.Bye:
			// The goodbye lets the worker (and, through its mesh goodbyes,
			// its peers) tear down immediately — no timeout anywhere.
			r.send(r.peers[e.W], TBye, nil)
			r.peers[e.W].gone = true
		case exec.Dial:
			go r.dialJoiner(e.Addr)
		case exec.Verdict:
			e.Req.(chan error) <- e.Err // buffered: the loop never blocks on a verdict
		case exec.Done:
			at := r.now()
			for _, p := range r.peers {
				in, out := p.link.Stats()
				r.extra = append(r.extra, trace.Event{Kind: trace.WireBytes, At: at,
					Peer: p.i, Bytes: in + out, Note: p.addr})
			}
			e.Result.Trace.Events = append(e.Result.Trace.Events, r.extra...)
			e.Result.Trace.Sort()
			e.Result.Elapsed = time.Since(r.start)
			r.parkPeers()
			return e.Result, nil
		}
	}
	return nil, err
}

// parkPeers hands the fleet the connection of every worker that
// answered its goodbye: the daemon's end is awaiting a Hello again, so
// the next run placed there opens on it without dialling. Workers still
// owing the answer share goodbyeWait; whatever is not parked closes
// with the run.
func (r *coRun) parkPeers() {
	patience := time.After(goodbyeWait)
	for _, p := range r.peers {
		if r.co.fleet == nil || !p.gone || p.link.Conn() == nil {
			continue // a bare run, or a worker lost before any goodbye
		}
		select {
		case <-p.parted:
			r.co.fleet.park(p.addr, p.link.Release())
		case <-patience:
			return
		}
	}
}

// dialJoiner connects to a worker the lifecycle agreed to consider and
// reports back on the central loop, where the join is validated again.
// Whether its daemon holds the schedule is not asked: a joiner is rare
// enough to be sent it regardless.
func (r *coRun) dialJoiner(addr string) {
	c, _, err := r.dial(r.ctx, addr)
	select {
	case r.events <- coEvent{ctl: exec.JoinDialed{Addr: addr, Err: err}, conn: c}:
	case <-r.ctx.Done():
		if c != nil {
			c.Close()
		}
	}
}

// serveControl answers the run's own control listener, which closes
// with the run: each connection's one request goes the same way a
// fleet-forwarded one does.
func (r *coRun) serveControl(lis Listener) {
	for {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		go func() {
			switch join, drain := readControl(c); {
			case join != nil:
				answerControl(c, r.co.SubmitJoin(r.ctx, join.Addr))
			case drain != nil:
				answerControl(c, r.co.SubmitDrain(r.ctx, drain.Worker, drain.Addr))
			}
		}()
	}
}

// submitCtl posts a join offer or drain request to the run in flight
// and waits for the verdict that answers reply.
func (co *Coordinator) submitCtl(ctx context.Context, ev exec.Event, reply chan error) error {
	co.ctlMu.Lock()
	ch, done := co.ctlCh, co.ctlDone
	co.ctlMu.Unlock()
	if ch == nil {
		return errNoRun
	}
	select {
	case ch <- coEvent{ctl: ev}:
	case <-done:
		return errRunEnded
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-done:
		return errRunEnded
	case <-ctx.Done():
		return ctx.Err()
	}
}

// SubmitJoin offers the worker daemon at addr to the run in flight,
// exactly as a TJoin announce on the run's own control listener would.
// It returns nil once the worker serves the run (or already did), or
// the run's rejection reason.
func (co *Coordinator) SubmitJoin(ctx context.Context, addr string) error {
	reply := make(chan error, 1)
	return co.submitCtl(ctx, exec.JoinOffer{Addr: addr, Req: reply}, reply)
}

// SubmitDrain asks the run in flight to gracefully evacuate a worker:
// by index when worker >= 0, else by its listen address. It returns nil
// once the worker departed with its state handed over, or the run's
// rejection reason.
func (co *Coordinator) SubmitDrain(ctx context.Context, worker int, addr string) error {
	reply := make(chan error, 1)
	return co.submitCtl(ctx, exec.DrainReq{Worker: worker, Addr: addr, Req: reply}, reply)
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
	dctx, cancel := context.WithTimeout(ctx, connectTimeout)
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
