package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Coordinator runs one schedule on a fixed list of worker daemons: its
// Run is a one-run Fleet seeded with Addrs, with no control listener,
// closed when the run ends. It stays only because the request-path
// benchmark builds one (bench/layers.go:513); ROADMAP item 3(d)
// deletes it. Everything else drives distributed runs through a Fleet.
type Coordinator struct {
	Transport Transport
	Addrs     []string
	// Runner supplies the run options every worker reproduces (faults,
	// retry, virtual time) and the run inputs.
	Runner *exec.Runner
	// HeartbeatEvery and PeerTimeout are the fleet's (see Fleet).
	HeartbeatEvery time.Duration
	PeerTimeout    time.Duration
	// Mesh is ignored: the mesh is always on. The field goes with
	// ROADMAP 3(d), once bench/layers.go:513 stops setting it.
	Mesh bool
}

// Run executes schedule s distributed over the coordinator's workers
// and returns a result equivalent to Runner.Run's.
func (co *Coordinator) Run(ctx context.Context, s *sched.Schedule, flat *graph.Flat) (*exec.Result, error) {
	f := &Fleet{Transport: co.Transport, Seed: co.Addrs,
		HeartbeatEvery: co.HeartbeatEvery, PeerTimeout: co.PeerTimeout}
	if err := f.Start(); err != nil {
		return nil, err
	}
	defer f.Close()
	return f.Run(ctx, co.Runner, s, flat)
}

// runSeq makes run IDs collision-proof within a process: concurrent
// runs of the same algorithm can start in the same nanosecond, and the
// run ID is the key every worker daemon routes by.
var runSeq atomic.Uint64

// orDefault is d when it is set (positive), else def.
func orDefault(d, def time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return def
}

func (f *Fleet) heartbeatEvery() time.Duration {
	return orDefault(f.HeartbeatEvery, 250*time.Millisecond)
}
func (f *Fleet) peerTimeout() time.Duration { return orDefault(f.PeerTimeout, 3*time.Second) }

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
	conn Conn   // reattach, or join dial: fresh connection; read error: the broken one
	rcvd uint64 // reattach: worker's receive watermark
	ctl  exec.Event
}

// coRun is one distributed run: the I/O driver of its exec.Lifecycle.
// It connects, pumps frames into events and effects into frames,
// redials, turns heartbeat silence into Lost, and relays data for
// worker pairs whose mesh link is not up. It decides nothing about the
// run. Only a Fleet builds one: transport, timers, drain floor, parked
// connections and shipped schedules are all its fleet's.
type coRun struct {
	f      *Fleet
	runner *exec.Runner
	s      *sched.Schedule
	flat   *graph.Flat
	id     string
	lc     *exec.Lifecycle
	peers  []*peer
	addrs  []string // worker listen addresses by index (grows on join)
	events chan coEvent
	// done closes when the run ends, releasing a join or drain the
	// fleet forwarded whose verdict was still owed.
	done  chan struct{}
	start time.Time
	extra []trace.Event // connection-level trace events: connects, byte counts
	ctx   context.Context
	// ship is the encoded schedule a start bundle carries to a daemon
	// that does not hold it, inputs the run inputs every one carries.
	ship   *shipment
	inputs []byte
	relays int // data frames relayed since the last flush
}

// newRun prepares one run of s over the placed workers, numbered in
// placed's order. Traffic-aware placement puts near-equal per-worker
// processor quotas on them, grouped to minimize cross-worker bytes
// (never worse than contiguous blocks; see sched.Place).
func (f *Fleet) newRun(runner *exec.Runner, s *sched.Schedule, flat *graph.Flat, placed []string) *coRun {
	s.Finalize()
	r := &coRun{
		f: f, runner: runner, s: s, flat: flat,
		id:     fmt.Sprintf("%s-%d-%d", s.Algorithm, time.Now().UnixNano(), runSeq.Add(1)),
		addrs:  slices.Clone(placed),
		events: make(chan coEvent, 256),
		done:   make(chan struct{}),
		start:  time.Now(),
	}
	r.lc = exec.NewLifecycle(s, flat, runner, r.addrs, sched.Place(s, len(placed)), f.MinWorkers)
	for i, addr := range r.addrs {
		r.peers = append(r.peers, &peer{i: i, addr: addr, lastHeard: time.Now(), parted: make(chan struct{})})
	}
	return r
}

// now is the coordinator event timestamp: microseconds since run start.
func (r *coRun) now() machine.Time {
	return machine.Time(time.Since(r.start) / time.Microsecond)
}

// run connects, starts, and drives the central loop to completion.
func (r *coRun) run(ctx context.Context) (*exec.Result, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	r.ctx = ctx
	defer func() {
		close(r.done)
		for _, p := range r.peers {
			if p.redial != nil {
				p.redial()
			}
			p.link.Close()
		}
	}()

	var err error
	if r.ship, err = r.f.ships.of(r.s, r.flat); err != nil {
		return nil, err
	}
	if r.inputs, err = EncodeEnv(r.runner.Inputs); err != nil {
		return nil, fmt.Errorf("wire: encode inputs: %w", err)
	}
	if err := r.connectAll(); err != nil {
		return nil, err
	}
	if err := r.startAll(); err != nil {
		return nil, err
	}

	hb := time.NewTicker(r.f.heartbeatEvery())
	defer hb.Stop()
	for {
		var res *exec.Result
		var err error
		select {
		case <-ctx.Done():
			r.abortPeers("run cancelled by coordinator")
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
			// Flush coalesced relays when the inbound queue drains (and
			// periodically inside long bursts, so a sender's outbox doesn't
			// wait on a saturated loop). An ack owed alone rides the next
			// flush, or the heartbeat's, as on mesh links: a member's
			// quiet reports draw no write of their own.
			if r.relays > 0 && (len(r.events) == 0 || r.relays >= 64) {
				r.relays = 0
				r.flushAll()
			}
		}
		if err != nil {
			// The workers tear their share down now, not when the
			// coordinator's silence outlasts their peer timeout.
			r.abortPeers(err.Error())
		}
		if res != nil || err != nil {
			return res, err
		}
	}
}

// abortPeers tells every worker still in the run that it failed.
func (r *coRun) abortPeers(msg string) {
	for _, p := range r.peers {
		if !p.gone {
			r.send(p, TError, encJSON(ErrorNote{Msg: msg}))
		}
	}
}

// peerEvent handles what worker p's connection produced: a break, a
// fresh connection after a redial, or a frame.
func (r *coRun) peerEvent(p *peer, ev coEvent) (*exec.Result, error) {
	switch {
	case ev.err != nil:
		// Connection broke: keep the run alive and redial until the
		// heartbeat budget declares the worker dead. An error from a
		// connection the link has left is stale — the daemon closes the
		// old connection as it takes a redialled one — and must not
		// break its replacement.
		if ev.conn == p.link.Conn() {
			p.link.Detach()
			r.redialPeer(p)
		}
	case ev.conn != nil:
		p.redial = nil
		if err := p.link.Reattach(ev.conn, ev.rcvd); err != nil {
			p.link.Detach()
			r.redialPeer(p)
			break
		}
		p.lastHeard = time.Now()
		r.extra = append(r.extra, trace.Event{Kind: trace.PeerConnected, At: r.now(), Peer: p.i, Note: "reconnect"})
		r.startReader(p)
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
	slog.Warn("worker write failed; reconnecting", "run", r.id, "worker", p.i, "addr", p.addr, "err", err)
	p.link.Detach()
	r.redialPeer(p)
}

// dial opens this run on the worker daemon at addr and reports whether
// the daemon holds the run's schedule. It takes a parked connection
// when one answers the Hello, and otherwise connects through the fleet,
// once.
func (r *coRun) dial(ctx context.Context, addr string) (c Conn, have bool, err error) {
	hello := Hello{Proto: ProtoVersion, Run: r.id, Digest: r.ship.digest}
	if c = r.f.idle.lease(addr); c != nil {
		if w, err := handshake(c, hello); err == nil {
			return c, w.Have, nil
		}
		c.Close() // the daemon went away, or closes what it finished: dial
	}
	if c, err = r.f.connect(ctx, addr); err != nil {
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

// errRefused wraps a Hello's refusal: the connection answered it, and
// awaits a Hello again.
var errRefused = errors.New("wire: worker rejected handshake")

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
		return Welcome{}, fmt.Errorf("%w: %s", errRefused, n.Msg)
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
			ev := coEvent{i: p.i, f: f}
			if err != nil {
				ev.err, ev.conn = err, c
			}
			select {
			case r.events <- ev:
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
	rctx, cancel := context.WithTimeout(r.ctx, r.f.peerTimeout())
	p.redial = cancel
	hello := Hello{Proto: ProtoVersion, Run: r.id, Rcvd: p.link.Rcvd(), Digest: r.ship.digest}
	slog.Warn("worker connection lost; redialing", "run", r.id, "worker", p.i, "addr", p.addr)
	go func() {
		defer cancel()
		for rctx.Err() == nil {
			c, err := dialBackoff(rctx, r.f.Transport, p.addr, 0, 0)
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
		Opts:           OptsFor(r.runner),
		HeartbeatEvery: int64(r.f.heartbeatEvery()), PeerTimeout: int64(r.f.peerTimeout()),
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
			if err := p.link.SendRaw(Frame{Type: THeartbeat}); err != nil {
				r.breakConn(p, err)
			}
		}
		if now.Sub(p.lastHeard) > r.f.peerTimeout() {
			slog.Warn("worker declared dead", "run", r.id, "worker", p.i, "addr", p.addr, "silent", r.f.peerTimeout())
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
			r.relays++
			if err := q.link.SendData(TData, f.Payload, false); err != nil {
				// The frame is in q's outbox and replays on reattach.
				r.breakConn(q, err)
			}
		}
		return nil, nil
	case TIdle:
		q, err := decJSON[exec.Quiet](f.Payload, "idle")
		if err != nil {
			return nil, err
		}
		q.W = p.i
		return r.step(q, nil)
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
		st, err := note.state(blobs, r.s.Graph)
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
		if len(blobs) != 2 {
			return nil, fmt.Errorf("wire: worker %d result carries %d blobs, want 2", p.i, len(blobs))
		}
		// The events stay encoded until the run's log is made: the
		// lifecycle decodes them straight into it.
		part := &exec.Partial{Exports: note.Exports, Printed: note.Printed, PrintedPE: note.PrintedPE,
			RemoteSends: note.Sends, RemoteFlushes: note.Flushes,
			AppendEvents: func(dst []trace.Event) ([]trace.Event, error) {
				out, err := AppendEvents(dst, blobs[1], r.s.Graph)
				if err != nil {
					return dst, fmt.Errorf("wire: worker %d result: %w", p.i, err)
				}
				return out, nil
			}}
		if part.Outputs, err = DecodeEnv(blobs[0]); err == nil {
			part.NumEvents, _, err = eventCount(blobs[1])
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
		slog.Debug("worker joining; pausing for expand replan", "run", r.id, "worker", p.i, "addr", p.addr)
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
		case exec.Finish:
			r.send(r.peers[e.W], TFinish, nil)
		case exec.Probe:
			r.send(r.peers[e.W], TProbe, nil)
		case exec.Bye:
			// The goodbye lets the worker (and, through its mesh goodbyes,
			// its peers) tear down at once; only an unanswered goodbye
			// waits, for goodbyeWait (ROADMAP 10(a)).
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
		if !p.gone || p.link.Conn() == nil {
			continue // a worker lost before any goodbye
		}
		select {
		case <-p.parted:
			r.f.park(p.addr, p.link.Release())
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

// submit posts a join offer or drain request the fleet forwards to the
// run and waits for the verdict that answers reply.
func (r *coRun) submit(ctx context.Context, ev exec.Event, reply chan error) error {
	select {
	case r.events <- coEvent{ctl: ev}:
	case <-r.done:
		return errRunEnded
	case <-ctx.Done():
		return ctx.Err()
	}
	select {
	case err := <-reply:
		return err
	case <-r.done:
		return errRunEnded
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitJoin offers the worker daemon at addr to the run. It returns
// nil once the worker serves the run (or already did), or the run's
// rejection reason.
func (r *coRun) submitJoin(ctx context.Context, addr string) error {
	reply := make(chan error, 1)
	return r.submit(ctx, exec.JoinOffer{Addr: addr, Req: reply}, reply)
}

// submitDrain asks the run to gracefully evacuate the worker listening
// at addr. It returns nil once the worker departed with its state
// handed over, or the run's rejection reason.
func (r *coRun) submitDrain(ctx context.Context, addr string) error {
	reply := make(chan error, 1)
	return r.submit(ctx, exec.DrainReq{Worker: -1, Addr: addr, Req: reply}, reply)
}

// Calibrate measures round-trip latency to the worker daemon at addr
// with empty and 4096-word ping payloads and derives a
// machine.Calibration (message startup cost and per-word transfer
// time): the paper's machine-model parameters measured from the actual
// wire. ctx bounds the dial and every probe: a pong that never comes
// fails the calibration when ctx ends.
func Calibrate(ctx context.Context, tr Transport, addr string, probes int) (machine.Calibration, error) {
	if probes <= 0 {
		probes = 8
	}
	var cal machine.Calibration
	c, err := tr.Dial(ctx, addr)
	if err != nil {
		return cal, err
	}
	defer c.Close()
	if _, err := handshake(c, Hello{Proto: ProtoVersion}); err != nil {
		return cal, err
	}

	// One reader goroutine feeds every probe.
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
	small, err := minRTT(ctx, c, probes, nil, frames, rerr)
	if err != nil {
		return cal, err
	}
	large, err := minRTT(ctx, c, probes, make([]byte, words*8), frames, rerr)
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
// payload. A lost pong (or a worker that only ever sends heartbeats)
// fails the probe when ctx ends instead of spinning the receive loop
// forever.
func minRTT(ctx context.Context, c Conn, n int, payload []byte, frames <-chan Frame, rerr <-chan error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := c.WriteFrame(Frame{Type: TPing, Payload: payload}); err != nil {
			return 0, err
		}
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
			case <-ctx.Done():
				return 0, fmt.Errorf("wire: calibration probe %d timed out (no pong): %w", i, ctx.Err())
			}
		}
		if rtt := time.Since(t0); best == 0 || rtt < best {
			best = rtt
		}
	}
	return best, nil
}
