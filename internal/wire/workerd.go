package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
)

// WorkerOptions configures a worker daemon. A caller sets nothing in
// it: the type stays only because the request-path benchmark builds one
// (bench/harness.go:156).
type WorkerOptions struct {
	// transport is the transport the daemon listens on; the mesh dials
	// peers over the same one. Installed by ServeWorker.
	transport Transport
}

// handshakeTimeout bounds how long an accepted connection may take to
// say Hello, and a mesh dial to be welcomed.
const handshakeTimeout = 5 * time.Second

// activeWorkerRuns counts the runs worker daemons in this process are
// hosting (attached or awaiting a coordinator reconnect). Leak tests
// assert it returns to zero after teardown.
var activeWorkerRuns atomic.Int64

// sessOutcome is how a session ended: its encoded result, or the error.
type sessOutcome struct {
	note []byte
	err  error
}

// inboundConn is an accepted connection and the last Hello read off it:
// a coordinator's (hello.Peer == 0) or a mesh peer's (hello.Peer == k+1
// for worker k). Its reader pumps every frame into frames until the
// connection breaks (rerr).
type inboundConn struct {
	c      Conn
	hello  Hello
	frames chan Frame
	rerr   chan error
}

// next returns the connection's next frame, or the error its reader
// stopped at.
func (ic *inboundConn) next() (Frame, error) {
	select {
	case f := <-ic.frames:
		return f, nil
	case err := <-ic.rerr:
		return Frame{}, err
	}
}

// accept owns a fresh connection: it starts the reader and routes each
// Hello the connection says; connections that do not say a valid one
// are dropped here without disturbing any run. A fresh connection has
// handshakeTimeout to say its first. One that comes back from route has
// served a run that ended with a goodbye, or had a mesh Hello refused:
// it is a coordinator's or a peer daemon's parked link, and waits for
// its next run — holding no run-table slot — until either end closes it.
func (d *workerDaemon) accept(c Conn) {
	// Deep enough that a burst of data frames rarely blocks the reader
	// behind the run's loop.
	frames, rerr := make(chan Frame, 256), make(chan error, 1)
	go func() {
		for {
			f, err := c.ReadFrame()
			if err != nil {
				rerr <- err
				return
			}
			select {
			case frames <- f:
			case <-d.ctx.Done():
				rerr <- d.ctx.Err() // a mesh reader waits on this, not on the daemon
				return
			}
		}
	}()
	hs := time.NewTimer(handshakeTimeout)
	defer hs.Stop()
	ic, late := &inboundConn{c: c, frames: frames, rerr: rerr}, hs.C
	for ic != nil {
		select {
		case f := <-ic.frames:
			h, err := decJSON[Hello](f.Payload, "hello")
			if f.Type != THello || err != nil || h.Proto != ProtoVersion {
				rejectConn(ic.c, fmt.Sprintf("handshake rejected: need a hello speaking protocol %d, got %s", ProtoVersion, f.Type))
				return
			}
			ic.hello, late = h, nil
			ic = d.route(*ic)
			continue
		case <-late:
			slog.Warn("peer connected but never said hello; dropping")
		case <-ic.rerr:
		case <-d.ctx.Done():
		}
		ic.c.Close()
		return
	}
}

// rejectConn answers a connection the daemon cannot serve.
func rejectConn(c Conn, msg string) {
	c.WriteFrame(Frame{Type: TError, Payload: encJSON(ErrorNote{Msg: msg})})
	c.Close()
}

// refuse answers a mesh Hello the daemon cannot serve and keeps the
// connection, awaiting a Hello again: the dialler parks it.
func refuse(ic inboundConn, msg string) *inboundConn {
	if ic.c.WriteFrame(Frame{Type: TError, Payload: encJSON(ErrorNote{Msg: msg})}) != nil {
		ic.c.Close()
		return nil
	}
	return &ic
}

// workerRun is the state of one run hosted by a worker daemon,
// surviving coordinator reconnects. A daemon hosts any number of these
// concurrently, each with its own session, mesh, heartbeat cadence and
// orphan-abandonment timer; nothing here is shared across runs.
type workerRun struct {
	id          string
	link        *Link        // to the coordinator (nil until the first connection is adopted)
	reader      *inboundConn // the coordinator's current connection (nil while detached)
	held        *held        // the schedule its Hello named (if the daemon had it), then the one it started
	ses         *exec.Session
	mesh        atomic.Pointer[mesh]
	meshUp      chan struct{} // closed once the start bundle decided the mesh
	hbEvery     time.Duration
	peerTimeout time.Duration
	resultCh    chan sessOutcome
	ended       bool // the session's outcome arrived
	sentResult  bool

	// adopt receives coordinator connections for this run (reconnects,
	// or a replacement connection while one is attached); gone closes
	// when the run leaves the daemon's table, so a router blocked on
	// adopt can fall back to creating a fresh run.
	adopt chan inboundConn
	gone  chan struct{}
}

// abort tears the run down (session abort + drain the Wait goroutine).
// bye says the coordinator ended the run with a goodbye: the mesh says
// goodbye on its links too, and their connections can carry another run.
func (r *workerRun) abort(reason string, bye bool) {
	// The session goes down before the mesh: mesh close waits for its
	// connection readers, and a reader blocked delivering into a live
	// session only unblocks when the session ends.
	if r.ses != nil {
		r.ses.Abort(fmt.Errorf("wire: %s", reason))
		if !r.ended {
			<-r.resultCh
			r.ended = true
		}
	}
	if ms := r.mesh.Swap(nil); ms != nil {
		ms.close(bye)
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

// workerDaemon is the daemon-wide state: the table of hosted runs and
// the table of schedules they run. All connection routing keys on
// Hello.Run — a frame, mesh dial, heartbeat or checkpoint for run A can
// only ever reach run A's state, because the only path from a connection
// to a session goes through this table. Schedules are keyed by content
// (scheduleDigest), so the runs of one schedule share one decoded
// instance and the era compiled on it.
type workerDaemon struct {
	opt WorkerOptions
	ctx context.Context

	mu     sync.Mutex
	runs   map[string]*workerRun
	held   map[string]*held
	closed bool           // no further runs may be created
	wg     sync.WaitGroup // run loops
	idle   idleConns      // mesh connections to the daemons this one dialled, parked by their address
}

// hold returns the table's entry for the schedule a start bundle
// carries, decoding it on a miss — under the lock: racing first runs of
// a schedule must share one instance, and a miss is once per schedule.
// The digest is computed here, from the bytes that arrived.
func (d *workerDaemon) hold(b *StartBundle) (*held, error) {
	digest := scheduleDigest(b.ScheduleBin, b.ExternalIn, b.ExternalOut)
	d.mu.Lock()
	defer d.mu.Unlock()
	if h := d.held[digest]; h != nil {
		return h, nil
	}
	s, err := DecodeSchedule(b.ScheduleBin)
	if err != nil {
		return nil, err
	}
	if len(d.held) >= heldMax {
		d.held = map[string]*held{}
	}
	d.held[digest] = &held{s, &graph.Flat{Graph: s.Graph, ExternalIn: b.ExternalIn, ExternalOut: b.ExternalOut}, NewNameIndex(s.Graph)}
	return d.held[digest], nil
}

// ServeWorker runs a worker daemon: listen on addr, accept coordinator
// and mesh connections, and host every run the fleet places here —
// concurrently, each keyed by its run ID — until ctx is cancelled.
// Returns the bound address via the ready callback (useful with ":0"
// listeners) before blocking.
func ServeWorker(ctx context.Context, t Transport, addr string, opt WorkerOptions, ready func(boundAddr string)) error {
	opt.transport = t
	return (&workerDaemon{opt: opt}).serve(ctx, addr, ready)
}

// serve is ServeWorker on a daemon value the caller keeps: tests read
// its tables.
func (d *workerDaemon) serve(ctx context.Context, addr string, ready func(boundAddr string)) error {
	// The runs end on their own context, cancelled only once the listener
	// is closed: a daemon that is shutting down accepts no connection
	// while it drops its runs, so a fleet re-dialling it finds it gone.
	dctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	defer cancel()
	d.ctx, d.runs, d.held = dctx, map[string]*workerRun{}, map[string]*held{}
	lis, err := d.opt.transport.Listen(addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(lis.Addr())
	}

	// Shutdown: close the listener (which also unblocks Accept), then
	// abort every run loop and wait them out, so sessions, meshes and
	// links never outlive the daemon. The closed flag is published under
	// d.mu before the Wait so no router can wg.Add a fresh run once the
	// Wait has begun.
	defer func() {
		lis.Close()
		cancel()
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		d.wg.Wait()
		d.idle.close()
	}()

	acceptErr := make(chan error, 1)
	go func() {
		for {
			c, err := lis.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			go d.accept(c)
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
// Runs in the connection's own goroutine, which hosts the run a first
// coordinator Hello creates, or the mesh link a peer's Hello opens; the
// connection that run or link ends on with a goodbye is returned, idle
// again, and so is one whose mesh Hello was refused.
func (d *workerDaemon) route(ic inboundConn) *inboundConn {
	h := ic.hello
	if h.Peer > 0 {
		d.mu.Lock()
		run := d.runs[h.Run]
		d.mu.Unlock()
		if h.Run == "" || run == nil {
			return refuse(ic, "unknown run")
		}
		// A peer's start bundle can outrun ours: its dial waits here for
		// our mesh instead of being turned away into a back-off. (A run
		// leaves the table on every path, the daemon's shutdown included.)
		select {
		case <-run.meshUp:
		case <-run.gone:
			return refuse(ic, "run ended")
		}
		if ms := run.mesh.Load(); ms != nil {
			return ms.acceptPeer(ic)
		}
		return refuse(ic, "mesh disabled")
	}
	if h.Run == "" {
		d.serveEphemeral(ic)
		return nil
	}
	for {
		d.mu.Lock()
		if d.closed || d.ctx.Err() != nil {
			d.mu.Unlock()
			ic.c.Close()
			return nil
		}
		run := d.runs[h.Run]
		if run == nil {
			// The run pins the schedule its Hello names: the start bundle
			// may then come without it whatever happens to the table.
			run = &workerRun{id: h.Run, held: d.held[h.Digest], meshUp: make(chan struct{}),
				hbEvery: 250 * time.Millisecond, peerTimeout: 3 * time.Second,
				adopt: make(chan inboundConn), gone: make(chan struct{})}
			d.runs[h.Run] = run
			activeWorkerRuns.Add(1)
			d.wg.Add(1)
			d.mu.Unlock()
			return d.runLoop(run, ic)
		}
		d.mu.Unlock()
		select {
		case run.adopt <- ic:
			return nil
		case <-run.gone:
			// The run ended while this connection was in flight; retry —
			// the next round creates a fresh run for it.
		case <-d.ctx.Done():
			ic.c.Close()
			return nil
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
				slog.Warn("unexpected frame on a run-less connection; dropping", "frame", f.Type)
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
// never notice. A run that ended with a goodbye returns the connection
// it ended on.
func (d *workerDaemon) runLoop(run *workerRun, first inboundConn) *inboundConn {
	defer d.wg.Done()
	defer d.endRun(run)
	next := &first
	for {
		if next != nil {
			adoptCoord(*next, run)
			next = nil
		}
		if run.reader != nil {
			var keep bool
			keep, next = d.frameLoop(run)
			if !keep {
				return next
			}
			continue
		}
		// Detached: await a reconnect, but not forever.
		orphan := time.NewTimer(run.peerTimeout)
		select {
		case <-d.ctx.Done():
			orphan.Stop()
			run.abort("worker shutting down", false)
			return nil
		case <-orphan.C:
			slog.Warn("coordinator did not reconnect; abandoning run", "run", run.id, "within", run.peerTimeout)
			run.abort("coordinator lost", false)
			return nil
		case ic := <-run.adopt:
			orphan.Stop()
			next = &ic
		}
	}
}

// adoptCoord installs a coordinator connection on the run: the first
// connection creates the link; later ones are reconnects (exchange
// watermarks, replay the outbox). On failure the run's reader stays
// nil and the orphan timer keeps counting.
func adoptCoord(ic inboundConn, run *workerRun) {
	if run.link != nil {
		// Reconnect to the run in flight. The Welcome must precede the
		// outbox replay Reattach performs.
		if err := ic.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion, Rcvd: run.link.Rcvd(), Have: run.held != nil})}); err != nil {
			ic.c.Close()
			return
		}
		if err := run.link.Reattach(ic.c, ic.hello.Rcvd); err != nil {
			run.link.Detach()
			return
		}
		run.reader = &ic
		slog.Debug("coordinator reconnected", "run", run.id)
		return
	}
	if err := ic.c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion, Have: run.held != nil})}); err != nil {
		ic.c.Close()
		return
	}
	run.link = NewLink(ic.c)
	run.reader = &ic
}

// frameLoop drives one connected stretch of a run. keep=false means the
// run is torn down, and a conn with it that the run ended on it with a
// goodbye and the connection awaits a Hello again; keep=true with a nil
// conn means the connection dropped and the run awaits a reconnect; a
// non-nil conn is a replacement coordinator connection to adopt
// immediately.
func (d *workerDaemon) frameLoop(run *workerRun) (keep bool, next *inboundConn) {
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
		if !run.ended {
			results = run.resultCh
		}
		select {
		case <-d.ctx.Done():
			run.abort("worker shutting down", false)
			return false, nil
		case err := <-rd.rerr:
			if run.ses == nil || run.sentResult {
				// No run started, or it already ended: nothing to keep.
				run.abort("connection closed", false)
				return false, nil
			}
			slog.Warn("coordinator connection lost; awaiting reconnect", "run", run.id, "err", err)
			run.link.Detach()
			run.reader = nil
			return true, nil
		case <-hb.C:
			run.flushData()
			run.link.SendRaw(Frame{Type: THeartbeat})
			if time.Since(lastHeard) > run.peerTimeout {
				slog.Warn("no coordinator traffic; abandoning run", "run", run.id, "within", run.peerTimeout)
				run.abort("coordinator heartbeat lost", false)
				return false, nil
			}
		case out := <-results:
			run.ended = true
			run.flushData()
			if out.err != nil {
				slog.Warn("run failed locally", "run", run.id, "err", out.err)
				run.link.Send(TError, encJSON(ErrorNote{Msg: out.err.Error()}))
			} else {
				run.link.Send(TResult, out.note)
				run.sentResult = true
			}
		case ic := <-run.adopt:
			// A replacement coordinator connection for this run while one
			// is attached: detach and adopt it.
			run.link.Detach()
			run.reader = nil
			return true, &ic
		case f := <-rd.frames:
			lastHeard = time.Now()
			if handle, _ := run.link.Receive(f); !handle {
				continue // an ack, or a replay overlap already processed
			}
			done, err := d.handleFrame(run, f)
			if errors.Is(err, errCoordAbort) {
				// The coordinator's verdict ends the run: nothing to answer.
				slog.Warn("run aborted by the coordinator", "run", run.id, "err", err)
				run.abort(err.Error(), false)
				return false, nil
			}
			if err != nil {
				slog.Warn("protocol error", "run", run.id, "frame", f.Type, "err", err)
				run.link.Send(TError, encJSON(ErrorNote{Msg: err.Error()}))
				run.abort(fmt.Sprintf("protocol error: %v", err), false)
				return false, nil
			}
			if done {
				// The goodbye is answered on the bare connection, taken off
				// the link first: nothing of this run (an owed ack, a late
				// flush) may follow the answer onto it. The connection then
				// awaits a Hello again; one the answer failed on is broken, and
				// is closed there.
				if c := run.link.Release(); c != nil {
					c.WriteFrame(Frame{Type: TBye})
				}
				run.abort("run complete", true)
				return false, rd
			}
			if len(rd.frames) == 0 {
				// Inbound drained: flush coalesced data and the owed ack.
				run.flushData()
			}
		}
	}
}

// errCoordAbort marks the coordinator's own error frame: its verdict on
// the run, not a fault of the frame.
var errCoordAbort = errors.New("coordinator aborted the run")

// handleFrame processes one accepted frame. done=true ends the
// connection's run cleanly.
func (d *workerDaemon) handleFrame(run *workerRun, f Frame) (bool, error) {
	switch f.Type {
	case TData, TPause, TResume, TFinish, TProbe:
		if run.ses == nil {
			return false, fmt.Errorf("%s frame before start", f.Type)
		}
	}
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
		return false, d.startRun(run, &bundle)
	case TData:
		m, err := DecodeMsg(f.Payload)
		if err != nil {
			return false, err
		}
		putBuf(f.Payload) // DecodeMsg copies everything out
		return false, run.ses.Deliver(m)
	case TPause:
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
		note, err := parkedNote(st, run.held.names)
		if err != nil {
			return false, err
		}
		return false, run.link.Send(TParked, note)
	case TResume:
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
		if ms := run.mesh.Load(); ms != nil {
			ms.finished.Store(true)
		}
		run.ses.FinishRun()
		return false, nil
	case TProbe:
		run.ses.Probe()
		return false, nil
	case THeartbeat:
		return false, nil
	case TPing:
		return false, run.link.SendRaw(Frame{Type: TPong, Payload: f.Payload})
	case TBye:
		return true, nil
	case TError:
		note, _ := decJSON[ErrorNote](f.Payload, "error")
		return false, fmt.Errorf("%w: %s", errCoordAbort, note.Msg)
	default:
		return false, fmt.Errorf("unexpected %s frame", f.Type)
	}
}

// startRun builds the runner and session from a start bundle.
func (d *workerDaemon) startRun(run *workerRun, bundle *StartBundle) error {
	if bundle.Run != run.id {
		// The session table routes by the Hello's run ID; a bundle naming
		// a different run would cross-wire two runs' state.
		return fmt.Errorf("start bundle for run %q on a connection handshaken for run %q", bundle.Run, run.id)
	}
	h := run.held
	if len(bundle.ScheduleBin) > 0 {
		var err error
		if h, err = d.hold(bundle); err != nil {
			return err
		}
	} else if h == nil {
		return fmt.Errorf("start bundle carries no schedule and run %s named none this daemon holds", run.id)
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
	// The mesh goes up before the session: its dials overlap the
	// session's set-up, the session's first sends find it, and the peers'
	// dials waiting in route are let in. What a peer sends before the
	// session exists waits in the mesh for it.
	var ms *mesh
	if len(bundle.Peers) > 0 && bundle.Worker < len(bundle.Peers) && d.opt.transport != nil {
		ms = newMesh(meshConfig{
			transport: d.opt.transport, idle: &d.idle, runID: bundle.Run, self: bundle.Worker,
			addrs: bundle.Peers, peerOf: bundle.PeerOf,
		}, nil)
		run.mesh.Store(ms)
	}
	close(run.meshUp)
	var ses *exec.Session
	if bundle.Plan != nil {
		// Mid-run join: the bundle carries the resume plan every
		// surviving session installed at the barrier; this session
		// starts directly in that epoch with its clocks advanced.
		var plan *exec.ResumePlan
		if plan, err = bundle.Plan.plan(nil); err != nil {
			return err
		}
		ses, err = runner.StartSessionFrom(h.s, h.flat, bundle.Hosted, workerPlane{run: run}, plan)
	} else {
		ses, err = runner.StartSession(h.s, h.flat, bundle.Hosted, workerPlane{run: run})
	}
	if err != nil {
		return err
	}
	run.ses, run.held = ses, h
	if bundle.HeartbeatEvery > 0 {
		run.hbEvery = time.Duration(bundle.HeartbeatEvery)
	}
	if bundle.PeerTimeout > 0 {
		run.peerTimeout = time.Duration(bundle.PeerTimeout)
	}
	if ms != nil {
		ms.deliverTo(ses.Deliver)
	}
	run.resultCh = make(chan sessOutcome, 1)
	go func() {
		// The partial is encoded as soon as it is whole, and its log goes
		// back to the schedule's era for the next run of it here: nothing
		// of this run holds the partial after that.
		p, err := ses.Wait()
		var note []byte
		if err == nil {
			note, err = resultNote(p, h.names)
			ses.Release()
		}
		run.resultCh <- sessOutcome{note, err}
	}()
	hostedN := 0
	for _, h := range bundle.Hosted {
		if h {
			hostedN++
		}
	}
	// Typed attributes: a record below the handler's level then costs no
	// allocation, once a run.
	slog.LogAttrs(d.ctx, slog.LevelDebug, "run started", slog.String("run", run.id),
		slog.Int("worker", bundle.Worker), slog.Int("workers", bundle.Workers),
		slog.Int("hosted", hostedN), slog.Int("processors", len(bundle.Hosted)))
	return nil
}

// resultNote serializes a partial result. The output environment and
// the trace events, encoded against ix, ride out of band in the blob
// envelope.
func resultNote(p *exec.Partial, ix NameIndex) ([]byte, error) {
	outputs, err := EncodeEnv(p.Outputs)
	if err != nil {
		return nil, err
	}
	js := encJSON(ResultNote{Exports: p.Exports, Printed: p.Printed, PrintedPE: p.PrintedPE,
		Sends: p.RemoteSends, Flushes: p.RemoteFlushes})
	return encEventsEnvelope(js, outputs, p.Events, ix), nil
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

// FlushRemote ends a burst of sends: they share one wire write per
// link, and the acks this worker owes its links ride along.
func (p workerPlane) FlushRemote() { p.run.flushData() }

// Quiet reports the session on the coordinator link, in one write with
// the acks the link owes.
func (p workerPlane) Quiet(q exec.Quiet) {
	p.run.link.SendData(TIdle, encJSON(q), false)
	p.run.link.Flush()
}

func (p workerPlane) LocalCrash(pe int) { p.run.link.Send(TCrash, encJSON(CrashNote{PE: pe})) }
