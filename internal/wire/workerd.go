package wire

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
)

// WorkerOptions configures a worker daemon.
type WorkerOptions struct {
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	// transport is the transport the daemon listens on; the mesh dials
	// peers over the same one. Installed by ServeWorker.
	transport Transport
}

func (o WorkerOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// handshakeTimeout bounds how long an accepted connection may take to
// say Hello, and a mesh dial to be welcomed.
const handshakeTimeout = 5 * time.Second

// activeWorkerRuns counts sessions hosted across every worker daemon in
// this process. Leak tests assert it returns to zero after teardown.
var activeWorkerRuns atomic.Int64

// ActiveWorkerRuns reports how many runs worker daemons in this process
// are currently hosting (attached or awaiting a coordinator reconnect).
func ActiveWorkerRuns() int64 { return activeWorkerRuns.Load() }

// sessOutcome is what a session's Wait produced.
type sessOutcome struct {
	p   *exec.Partial
	err error
}

// inboundConn is an accepted connection whose Hello has been read: a
// coordinator (hello.Peer == 0) or a mesh peer (hello.Peer == k+1 for
// worker k). The hello reader keeps pumping subsequent frames into
// frames until the connection breaks (rerr).
type inboundConn struct {
	c      Conn
	hello  Hello
	frames chan Frame
	rerr   chan error
}

// helloIn reads the handshake off a fresh connection and routes it;
// connections that never say a valid Hello are dropped here without
// disturbing any run.
func helloIn(ctx context.Context, c Conn, opt WorkerOptions, route func(inboundConn)) {
	frames := make(chan Frame, 256)
	rerr := make(chan error, 1)
	first := make(chan Frame, 1)
	go func() {
		f, err := c.ReadFrame()
		if err != nil {
			rerr <- err
			return
		}
		first <- f
		for {
			f, err := c.ReadFrame()
			if err != nil {
				rerr <- err
				return
			}
			select {
			case frames <- f:
			case <-ctx.Done():
				return
			}
		}
	}()

	hs := time.NewTimer(handshakeTimeout)
	defer hs.Stop()
	select {
	case f := <-first:
		if f.Type != THello {
			opt.logf("peer opened with %s, want hello; dropping", f.Type)
			c.Close()
			return
		}
		h, err := decJSON[Hello](f.Payload, "hello")
		if err != nil || h.Proto != ProtoVersion {
			c.WriteFrame(Frame{Type: TError, Payload: encJSON(ErrorNote{Msg: fmt.Sprintf(
				"handshake rejected: need protocol %d", ProtoVersion)})})
			c.Close()
			return
		}
		route(inboundConn{c: c, hello: h, frames: frames, rerr: rerr})
	case <-hs.C:
		opt.logf("peer connected but never said hello; dropping")
		c.Close()
	case <-rerr:
		c.Close()
	case <-ctx.Done():
		c.Close()
	}
}

// rejectConn answers a connection the daemon cannot serve.
func rejectConn(c Conn, msg string) {
	c.WriteFrame(Frame{Type: TError, Payload: encJSON(ErrorNote{Msg: msg})})
	c.Close()
}

// workerRun is the state of one run hosted by a worker daemon,
// surviving coordinator reconnects. A daemon hosts any number of these
// concurrently, each with its own session, mesh, heartbeat cadence and
// orphan-abandonment timer; nothing here is shared across runs.
type workerRun struct {
	id          string
	link        *Link        // to the coordinator (nil until the first connection is adopted)
	reader      *inboundConn // the coordinator's current connection (nil while detached)
	ses         *exec.Session
	mesh        atomic.Pointer[mesh]
	hbEvery     time.Duration
	peerTimeout time.Duration
	resultCh    chan sessOutcome
	outcome     *sessOutcome // set once the session ended
	sentResult  bool
	stopFlush   context.CancelFunc // the run's flush ticker

	// adopt receives coordinator connections for this run (reconnects,
	// or a replacement connection while one is attached); gone closes
	// when the run leaves the daemon's table, so a router blocked on
	// adopt can fall back to creating a fresh run.
	adopt chan inboundConn
	gone  chan struct{}
}

// abort tears the run down (session abort + drain the Wait goroutine).
func (r *workerRun) abort(reason string) {
	if r.stopFlush != nil {
		r.stopFlush()
		r.stopFlush = nil
	}
	// The session goes down before the mesh: mesh close waits for its
	// connection readers, and a reader blocked delivering into a live
	// session only unblocks when the session ends.
	if r.ses != nil {
		r.ses.Abort(fmt.Errorf("wire: %s", reason))
		if r.outcome == nil {
			out := <-r.resultCh
			r.outcome = &out
		}
	}
	if ms := r.mesh.Swap(nil); ms != nil {
		ms.close()
	}
	if r.link != nil {
		r.link.Close()
	}
}

// flushData drives coalescing data frames and owed acks (mesh and
// coordinator link) onto the wire. Safe from any goroutine.
func (r *workerRun) flushData() {
	if ms := r.mesh.Load(); ms != nil {
		ms.flushAll()
	}
	r.link.Flush()
}

// workerDaemon is the daemon-wide state: the table of hosted runs. All
// connection routing keys on Hello.Run — a frame, mesh dial, heartbeat
// or checkpoint for run A can only ever reach run A's state, because
// the only path from a connection to a session goes through this table.
type workerDaemon struct {
	opt    WorkerOptions
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*workerRun
	closed bool           // no further runs may be created
	wg     sync.WaitGroup // run loops
}

// ServeWorker runs a worker daemon: listen on addr, accept coordinator
// and mesh connections, and host every run the fleet places here —
// concurrently, each keyed by its run ID — until ctx is cancelled.
// Returns the bound address via the ready callback (useful with ":0"
// listeners) before blocking.
func ServeWorker(ctx context.Context, t Transport, addr string, opt WorkerOptions, ready func(boundAddr string)) error {
	lis, err := t.Listen(addr)
	if err != nil {
		return err
	}
	defer lis.Close()
	if ready != nil {
		ready(lis.Addr())
	}
	opt.transport = t
	opt.logf("worker listening on %s", lis.Addr())

	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &workerDaemon{opt: opt, ctx: dctx, cancel: cancel, runs: map[string]*workerRun{}}
	// Every run loop aborts on dctx; wait them out before returning so
	// sessions, meshes and links never outlive the daemon. The closed
	// flag is published under d.mu before the Wait so no router can
	// wg.Add a fresh run once the Wait has begun.
	defer func() {
		cancel()
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		d.wg.Wait()
	}()

	// Unblock Accept when ctx ends.
	stopping := make(chan struct{})
	defer close(stopping)
	go func() {
		select {
		case <-dctx.Done():
			lis.Close()
		case <-stopping:
		}
	}()

	acceptErr := make(chan error, 1)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			go helloIn(dctx, c, opt, d.route)
		}
	}()

	select {
	case <-ctx.Done():
		return nil
	case err := <-acceptErr:
		if ctx.Err() != nil {
			return nil
		}
		return fmt.Errorf("wire: accept: %w", err)
	}
}

// route dispatches one handshaken connection by its Hello: mesh peers
// and coordinators go to the run named by hello.Run; run-less
// connections (calibration probes) get an ephemeral echo handler.
// Runs in the connection's own goroutine.
func (d *workerDaemon) route(ic inboundConn) {
	h := ic.hello
	if h.Peer > 0 {
		d.mu.Lock()
		run := d.runs[h.Run]
		d.mu.Unlock()
		if h.Run == "" || run == nil {
			rejectConn(ic.c, "unknown run")
			return
		}
		attachMeshConn(run, ic, d.opt)
		return
	}
	if h.Run == "" {
		d.serveEphemeral(ic)
		return
	}
	for {
		d.mu.Lock()
		if d.closed || d.ctx.Err() != nil {
			d.mu.Unlock()
			ic.c.Close()
			return
		}
		run := d.runs[h.Run]
		if run == nil {
			run = &workerRun{id: h.Run,
				hbEvery: 250 * time.Millisecond, peerTimeout: 3 * time.Second,
				adopt: make(chan inboundConn), gone: make(chan struct{})}
			d.runs[h.Run] = run
			activeWorkerRuns.Add(1)
			d.wg.Add(1)
			d.mu.Unlock()
			go d.runLoop(run, ic)
			return
		}
		d.mu.Unlock()
		select {
		case run.adopt <- ic:
			return
		case <-run.gone:
			// The run ended while this connection was in flight; retry —
			// the next round creates a fresh run for it.
		case <-d.ctx.Done():
			ic.c.Close()
			return
		}
	}
}

// serveEphemeral answers a run-less connection: Welcome, echo pings
// (calibration probes measure RTT this way), and tear down on goodbye.
// It never touches the run table.
func (d *workerDaemon) serveEphemeral(ic inboundConn) {
	defer ic.c.Close()
	if err := ic.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})}); err != nil {
		return
	}
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-ic.rerr:
			return
		case f := <-ic.frames:
			switch f.Type {
			case TPing:
				if err := ic.c.WriteFrame(Frame{Type: TPong, Payload: f.Payload}); err != nil {
					return
				}
			case TBye:
				return
			case THeartbeat, TAck:
				// Keepalive noise on a probe connection; ignore.
			default:
				d.opt.logf("unexpected %s frame on a run-less connection; dropping", f.Type)
				return
			}
		}
	}
}

// endRun removes the run from the table and flushes adoption attempts
// that raced the teardown.
func (d *workerDaemon) endRun(run *workerRun) {
	d.mu.Lock()
	if d.runs[run.id] == run {
		delete(d.runs, run.id)
	}
	d.mu.Unlock()
	activeWorkerRuns.Add(-1)
	close(run.gone)
	for {
		select {
		case ic := <-run.adopt:
			rejectConn(ic.c, "run ended")
		default:
			return
		}
	}
}

// runLoop owns one hosted run from its first coordinator connection to
// teardown: adopt connections, drive the frame loop while attached, and
// while detached wait out the run's own orphan timer — never another
// run's. One dead coordinator reaps exactly its run; co-hosted runs
// never notice.
func (d *workerDaemon) runLoop(run *workerRun, first inboundConn) {
	defer d.wg.Done()
	defer d.endRun(run)
	next := &first
	for {
		if next != nil {
			adoptCoord(*next, run, d.opt)
			next = nil
		}
		if run.reader != nil {
			var keep bool
			keep, next = d.frameLoop(run)
			if !keep {
				return
			}
			continue
		}
		// Detached: await a reconnect, but not forever.
		orphan := time.NewTimer(run.peerTimeout)
		select {
		case <-d.ctx.Done():
			orphan.Stop()
			run.abort("worker shutting down")
			return
		case <-orphan.C:
			d.opt.logf("coordinator did not reconnect within %v; abandoning run %s", run.peerTimeout, run.id)
			run.abort("coordinator lost")
			return
		case ic := <-run.adopt:
			orphan.Stop()
			next = &ic
		}
	}
}

// attachMeshConn hands an inbound mesh connection to the run's mesh.
func attachMeshConn(run *workerRun, ic inboundConn, opt WorkerOptions) {
	ms := run.mesh.Load()
	if ms == nil {
		rejectConn(ic.c, "mesh disabled")
		return
	}
	if err := ms.acceptPeer(ic.hello.Peer-1, ic.c, ic.hello.Rcvd, ic.frames, ic.rerr); err != nil {
		opt.logf("mesh attach from worker %d failed: %v", ic.hello.Peer-1, err)
		ic.c.Close()
	}
}

// adoptCoord installs a coordinator connection on the run: the first
// connection creates the link; later ones are reconnects (exchange
// watermarks, replay the outbox). On failure the run's reader stays
// nil and the orphan timer keeps counting.
func adoptCoord(ic inboundConn, run *workerRun, opt WorkerOptions) {
	if run.link != nil {
		// Reconnect to the run in flight. The Welcome must precede the
		// outbox replay Reattach performs.
		if err := ic.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion, Rcvd: run.link.Rcvd()})}); err != nil {
			ic.c.Close()
			return
		}
		if err := run.link.Reattach(ic.c, ic.hello.Rcvd); err != nil {
			run.link.Detach()
			return
		}
		run.reader = &ic
		opt.logf("coordinator reconnected to run %s", run.id)
		return
	}
	if err := ic.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})}); err != nil {
		ic.c.Close()
		return
	}
	run.link = NewLink(ic.c)
	run.reader = &ic
}

// frameLoop drives one connected stretch of a run. keep=false means the
// run is torn down; keep=true with a nil conn means the connection
// dropped and the run awaits a reconnect; a non-nil conn is a
// replacement coordinator connection to adopt immediately.
func (d *workerDaemon) frameLoop(run *workerRun) (keep bool, next *inboundConn) {
	opt := d.opt
	rd := run.reader
	hb := time.NewTicker(run.hbEvery)
	defer hb.Stop()
	cadence := run.hbEvery
	lastHeard := time.Now()
	for {
		// The start bundle may have changed the heartbeat cadence.
		if run.hbEvery != cadence {
			cadence = run.hbEvery
			hb.Reset(cadence)
		}
		var results chan sessOutcome
		if run.outcome == nil {
			results = run.resultCh
		}
		select {
		case <-d.ctx.Done():
			run.abort("worker shutting down")
			return false, nil
		case err := <-rd.rerr:
			if run.ses == nil || run.sentResult {
				// No run started, or it already ended: nothing to keep.
				run.abort("connection closed")
				return false, nil
			}
			opt.logf("coordinator connection to run %s lost (%v); awaiting reconnect", run.id, err)
			run.link.Detach()
			run.reader = nil
			return true, nil
		case <-hb.C:
			run.flushData()
			run.link.SendRaw(Frame{Type: THeartbeat, Payload: encU64(run.progress())})
			if time.Since(lastHeard) > run.peerTimeout {
				opt.logf("no coordinator traffic for %v; abandoning run %s", run.peerTimeout, run.id)
				run.abort("coordinator heartbeat lost")
				return false, nil
			}
		case out := <-results:
			run.outcome = &out
			run.flushData()
			if out.err != nil {
				opt.logf("run %s failed locally: %v", run.id, out.err)
				run.link.Send(TError, encJSON(ErrorNote{Msg: out.err.Error()}))
			} else {
				note, err := resultNote(out.p)
				if err != nil {
					run.link.Send(TError, encJSON(ErrorNote{Msg: err.Error()}))
				} else {
					run.link.Send(TResult, note)
					run.sentResult = true
				}
			}
		case ic := <-run.adopt:
			// A replacement coordinator connection for this run while one
			// is attached: detach and adopt it.
			run.link.Detach()
			run.reader = nil
			return true, &ic
		case f := <-rd.frames:
			lastHeard = time.Now()
			if !run.link.Receive(f) {
				continue // an ack, or a replay overlap already processed
			}
			done, err := handleFrame(run, f, opt)
			if err != nil {
				opt.logf("protocol error on %s frame: %v", f.Type, err)
				run.link.Send(TError, encJSON(ErrorNote{Msg: err.Error()}))
				run.abort(fmt.Sprintf("protocol error: %v", err))
				return false, nil
			}
			if done {
				run.abort("run complete")
				return false, nil
			}
			if len(rd.frames) == 0 {
				// Inbound drained: flush coalesced data and the owed ack.
				run.flushData()
			}
		}
	}
}

// progress reports the session's progress counter for heartbeats.
func (r *workerRun) progress() uint64 {
	if r.ses == nil {
		return 0
	}
	return r.ses.Progress()
}

// handleFrame processes one accepted frame. done=true ends the
// connection's run cleanly.
func handleFrame(run *workerRun, f Frame, opt WorkerOptions) (bool, error) {
	switch f.Type {
	case TStart:
		if run.ses != nil {
			return false, fmt.Errorf("start frame while a run is active")
		}
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return false, err
		}
		bundle, err := decJSON[StartBundle](js, "start")
		if err != nil {
			return false, err
		}
		if len(blobs) >= 2 {
			bundle.ScheduleBin, bundle.Inputs = blobs[0], blobs[1]
		}
		return false, startRun(run, &bundle, opt)
	case TData:
		if run.ses == nil {
			return false, fmt.Errorf("data frame before start")
		}
		m, err := DecodeMsg(f.Payload)
		if err != nil {
			return false, err
		}
		putBuf(f.Payload) // DecodeMsg copies everything out
		return false, run.ses.Deliver(m)
	case TPause:
		if run.ses == nil {
			return false, fmt.Errorf("pause frame before start")
		}
		var pn PauseNote
		if len(f.Payload) > 0 {
			var err error
			if pn, err = decJSON[PauseNote](f.Payload, "pause"); err != nil {
				return false, err
			}
		}
		// A graceful drain's checkpoint packs the full local state into
		// the reply — env checkpoint and trace events out of band, print
		// lines in the JSON — so this process can depart losing nothing.
		st, err := run.ses.Pause(pn.Checkpoint)
		if err != nil {
			return false, err
		}
		// The barrier: everything coalescing must be on the wire before
		// the coordinator sees Parked.
		run.flushData()
		note, blobs, err := parkedNote(st)
		if err != nil {
			return false, err
		}
		return false, run.link.Send(TParked, encBlobEnvelope(encJSON(note), blobs...))
	case TResume:
		if run.ses == nil {
			return false, fmt.Errorf("resume frame before start")
		}
		js, blobs, err := decBlobEnvelope(f.Payload)
		if err != nil {
			return false, err
		}
		note, err := decJSON[ResumeNote](js, "resume")
		if err != nil {
			return false, err
		}
		plan, err := note.plan(blobs)
		if err != nil {
			return false, err
		}
		if err := run.ses.Resume(plan); err != nil {
			return false, err
		}
		if ms := run.mesh.Load(); ms != nil {
			if len(note.Peers) > 0 {
				ms.update(note.Peers, note.PeerOf)
			}
			ms.pruneDead(note.Dead)
		}
		return false, nil
	case TFinish:
		if run.ses == nil {
			return false, fmt.Errorf("finish frame before start")
		}
		run.ses.FinishRun()
		return false, nil
	case THeartbeat:
		return false, nil
	case TPing:
		return false, run.link.SendRaw(Frame{Type: TPong, Payload: f.Payload})
	case TBye:
		return true, nil
	case TError:
		note, _ := decJSON[ErrorNote](f.Payload, "error")
		return false, fmt.Errorf("coordinator aborted the run: %s", note.Msg)
	default:
		return false, fmt.Errorf("unexpected %s frame", f.Type)
	}
}

// startRun builds the runner and session from a start bundle.
func startRun(run *workerRun, bundle *StartBundle, opt WorkerOptions) error {
	if bundle.Run != run.id {
		// The session table routes by the Hello's run ID; a bundle naming
		// a different run would cross-wire two runs' state.
		return fmt.Errorf("start bundle for run %q on a connection handshaken for run %q", bundle.Run, run.id)
	}
	s, err := bundle.DecodeScheduleBundle()
	if err != nil {
		return err
	}
	inputs, err := DecodeEnv(bundle.Inputs)
	if err != nil {
		return fmt.Errorf("bad inputs in start bundle: %w", err)
	}
	runner, err := bundle.Opts.Runner()
	if err != nil {
		return err
	}
	runner.Inputs = inputs
	flat := &graph.Flat{Graph: s.Graph, ExternalIn: bundle.ExternalIn, ExternalOut: bundle.ExternalOut}
	if flat.ExternalIn == nil {
		flat.ExternalIn = map[graph.NodeID][]string{}
	}
	if flat.ExternalOut == nil {
		flat.ExternalOut = map[graph.NodeID][]string{}
	}
	var ses *exec.Session
	if bundle.Plan != nil {
		// Mid-run join: the bundle carries the resume plan every
		// surviving session installed at the barrier; this session
		// starts directly in that epoch with its clocks advanced.
		var plan *exec.ResumePlan
		if plan, err = bundle.Plan.plan(nil); err != nil {
			return err
		}
		ses, err = runner.StartSessionFrom(s, flat, bundle.Hosted, workerPlane{run: run}, plan)
	} else {
		ses, err = runner.StartSession(s, flat, bundle.Hosted, workerPlane{run: run})
	}
	if err != nil {
		return err
	}
	run.ses = ses
	if bundle.HeartbeatEvery > 0 {
		run.hbEvery = time.Duration(bundle.HeartbeatEvery)
	}
	if bundle.PeerTimeout > 0 {
		run.peerTimeout = time.Duration(bundle.PeerTimeout)
	}
	if len(bundle.Peers) > 0 && bundle.Worker < len(bundle.Peers) && opt.transport != nil {
		run.mesh.Store(newMesh(meshConfig{
			transport: opt.transport, runID: bundle.Run, self: bundle.Worker,
			addrs: bundle.Peers, peerOf: bundle.PeerOf, logf: opt.logf,
		}, ses.Deliver))
	}
	// The flush ticker is the coalescing backstop: data waiting in a
	// peer buffer never waits longer than flushEvery, even when the
	// sending goroutine is off doing something else.
	fctx, cancel := context.WithCancel(context.Background())
	run.stopFlush = cancel
	go func() {
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-fctx.Done():
				return
			case <-t.C:
				run.flushData()
			}
		}
	}()
	run.resultCh = make(chan sessOutcome, 1)
	go func() {
		p, err := ses.Wait()
		run.resultCh <- sessOutcome{p: p, err: err}
	}()
	hostedN := 0
	for _, h := range bundle.Hosted {
		if h {
			hostedN++
		}
	}
	opt.logf("run %s started: hosting %d of %d processors as worker %d/%d",
		run.id, hostedN, len(bundle.Hosted), bundle.Worker, bundle.Workers)
	return nil
}

// resultNote serializes a partial result. The output environment and
// trace events ride out of band in the blob envelope.
func resultNote(p *exec.Partial) ([]byte, error) {
	outputs, err := EncodeEnv(p.Outputs)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]graph.NodeID, len(p.Exports))
	for k, v := range p.Exports {
		exports[k] = v
	}
	js := encJSON(ResultNote{Exports: exports, Printed: p.Printed, PrintedPE: p.PrintedPE})
	return encBlobEnvelope(js, outputs, EncodeEvents(p.Events)), nil
}

// workerPlane adapts the run's links to the session's RemotePlane:
// data frames go point-to-point over the mesh when the destination's
// link is up, and to the coordinator — which forwards them — otherwise;
// control notifications always go to the coordinator.
type workerPlane struct{ run *workerRun }

func (p workerPlane) DeliverRemote(m exec.RemoteMsg) error {
	b, err := AppendMsg(getBuf(), m)
	if err != nil {
		return err
	}
	if ms := p.run.mesh.Load(); ms != nil {
		if l := ms.linkFor(m.ToPE); l != nil {
			return l.SendData(TData, b, true)
		}
	}
	return p.run.link.SendData(TData, b, true)
}

// FlushRemote implements exec.RemoteFlusher: the runner calls it at
// slot boundaries so a burst of sends shares one wire write.
func (p workerPlane) FlushRemote() { p.run.flushData() }

func (p workerPlane) LocalIdle() {
	p.run.flushData()
	p.run.link.Send(TIdle, nil)
}

func (p workerPlane) LocalCrash(pe int) { p.run.link.Send(TCrash, encJSON(CrashNote{PE: pe})) }
