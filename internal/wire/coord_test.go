package wire

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// scripted is a hand-driven fake worker: it speaks just enough of the
// protocol to steer the coordinator's state machine into corners a real
// session never reaches on cue.
type scripted struct {
	t *testing.T
	c Conn
	l *Link
}

// acceptScripted accepts the coordinator's dial and answers the
// handshake.
func acceptScripted(t *testing.T, ln Listener) *scripted {
	t.Helper()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != THello {
		t.Fatalf("expected hello, got %s", f.Type)
	}
	if err := c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})}); err != nil {
		t.Fatal(err)
	}
	return &scripted{t: t, c: c, l: NewLink(c)}
}

// readUntil consumes (and acks) frames until one of type ty arrives.
func (w *scripted) readUntil(ty Type) Frame {
	w.t.Helper()
	deadline := time.After(5 * time.Second)
	got := make(chan Frame, 1)
	fail := make(chan error, 1)
	go func() {
		for {
			f, err := w.c.ReadFrame()
			if err != nil {
				fail <- err
				return
			}
			w.l.Receive(f)
			w.l.Flush() // acks what Receive just took in
			if f.Type == ty {
				got <- f
				return
			}
		}
	}()
	select {
	case f := <-got:
		return f
	case err := <-fail:
		w.t.Fatalf("waiting for %s: %v", ty, err)
	case <-deadline:
		w.t.Fatalf("no %s frame within 5s", ty)
	}
	return Frame{}
}

// finishingRun is a fleet run steered into its finishing state against
// two scripted workers.
type finishingRun struct {
	w0, w1 *scripted
	lns    []Listener // the scripted workers' listeners
	errCh  chan error
	resCh  chan *exec.Result
	f      *Fleet
}

// steerToFinishing runs a fleet run against two scripted workers and
// walks them to the finishing state: start bundles received, both
// workers idle, Finish broadcast. The fleet's control listener is at
// "ctl". Past the scripted accept, each listener accepts and closes
// further dials: a daemon that is still up when the fleet checks on it.
func steerToFinishing(t *testing.T) *finishingRun {
	t.Helper()
	flat, inputs := distDesign(t, 2, 2)
	m := distMachine(t, "hypercube:1")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	tr := Inproc()
	ln0, err := tr.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := tr.Listen("w1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln0.Close(); ln1.Close() })

	f := &Fleet{
		Transport: tr, Control: "ctl", Seed: []string{"w0", "w1"},
		HeartbeatEvery: 50 * time.Millisecond,
		// Long silence budget: the tests below must see the state
		// machine's own reaction, not a heartbeat-loss fallback.
		PeerTimeout: 60 * time.Second,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	run := &finishingRun{lns: []Listener{ln0, ln1}, errCh: make(chan error, 1), resCh: make(chan *exec.Result, 1), f: f}
	go func() {
		res, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs}, sc, flat)
		run.resCh <- res
		run.errCh <- err
	}()
	run.w0 = acceptScripted(t, ln0)
	run.w1 = acceptScripted(t, ln1)
	for _, ln := range run.lns {
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				c.Close()
			}
		}()
	}
	run.w0.readUntil(TStart)
	run.w1.readUntil(TStart)
	if err := run.w0.l.Send(TIdle, encJSON(exec.Quiet{})); err != nil { // idle in era 0
		t.Fatal(err)
	}
	if err := run.w1.l.Send(TIdle, encJSON(exec.Quiet{})); err != nil { // idle in era 0
		t.Fatal(err)
	}
	run.w0.readUntil(TFinish)
	run.w1.readUntil(TFinish)
	return run
}

// TestCoordCrashWhileFinishing: a crash report racing the finish
// decision must fail the run promptly, with its own cause. The old
// state machine fell through to startPause, waiting on a barrier the
// already-finished sessions could never answer — the run hung until
// heartbeat loss.
func TestCoordCrashWhileFinishing(t *testing.T) {
	run := steerToFinishing(t)
	if err := run.w0.l.Send(TCrash, encJSON(CrashNote{PE: 0})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-run.errCh:
		if err == nil || !strings.Contains(err.Error(), "finishing") {
			t.Fatalf("got %v, want a crashed-while-finishing error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung on a crash report in the finishing state")
	}
}

// TestFleetRunKeepsCauseWhenMembersDie: when a run fails and every
// member it was placed on is gone by the time the fleet checks, no
// retry is possible — and the error must still name why the run
// failed, not only that the fleet is now empty.
func TestFleetRunKeepsCauseWhenMembersDie(t *testing.T) {
	run := steerToFinishing(t)
	// Both daemons go away: their listeners refuse the fleet's check.
	for _, ln := range run.lns {
		ln.Close()
	}
	if err := run.w0.l.Send(TCrash, encJSON(CrashNote{PE: 0})); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-run.errCh:
		if err == nil || !strings.Contains(err.Error(), "crashed while the run was finishing") {
			t.Fatalf("got %v, want the run's crashed-while-finishing cause", err)
		}
		if n := run.f.Size(); n != 0 {
			t.Errorf("fleet kept %d members whose daemons are gone", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fleet run hung after its members died")
	}
}

// TestCoordParkedWhileFinishing: a stale Parked frame arriving after
// the finish decision (a replayed barrier reply) must be ignored, not
// kill the run as "parked outside a pause".
func TestCoordParkedWhileFinishing(t *testing.T) {
	run := steerToFinishing(t)
	if err := run.w0.l.Send(TParked, encJSON(ParkedNote{})); err != nil {
		t.Fatal(err)
	}
	empty, err := EncodeEnv(pits.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := encEventsEnvelope(encJSON(ResultNote{}), empty, nil, nil)
	if err := run.w0.l.Send(TResult, res); err != nil {
		t.Fatal(err)
	}
	if err := run.w1.l.Send(TResult, res); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-run.errCh:
		if err != nil {
			t.Fatalf("run failed on a stale parked frame: %v", err)
		}
		if r := <-run.resCh; r == nil {
			t.Fatal("run returned no result")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator hung after a stale parked frame")
	}
}

// flakyConn passes reads through but fails every write past the first
// failAfter: a half-closed connection, as a worker whose inbound
// direction died sees it.
type flakyConn struct {
	Conn
	mu        sync.Mutex
	writes    int
	failAfter int
}

func (c *flakyConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes >= c.failAfter
}

func (c *flakyConn) WriteFrame(f Frame) error {
	c.mu.Lock()
	c.writes++
	fail := c.writes > c.failAfter
	c.mu.Unlock()
	if fail {
		return fmt.Errorf("wire: injected write failure")
	}
	return c.Conn.WriteFrame(f)
}

func (c *flakyConn) WriteFrameBuffered(f Frame) error {
	c.mu.Lock()
	c.writes++
	fail := c.writes > c.failAfter
	c.mu.Unlock()
	if fail {
		return fmt.Errorf("wire: injected write failure")
	}
	return c.Conn.WriteFrameBuffered(f)
}

func (c *flakyConn) Flush() error {
	if c.broken() {
		return fmt.Errorf("wire: injected write failure")
	}
	return c.Conn.Flush()
}

// flakyTransport hands out one half-closed connection (the first dial)
// and clean ones after.
type flakyTransport struct {
	Transport
	mu        sync.Mutex
	handedOut bool
	failAfter int
}

func (t *flakyTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.handedOut {
		t.handedOut = true
		return &flakyConn{Conn: c, failAfter: t.failAfter}, nil
	}
	return c, nil
}

// TestCoordWriteFailureRedials: when the coordinator's writes start
// failing on an attached connection while reads still work, the send
// error must be treated as a connection break — detach, redial, replay
// — instead of being dropped. The old code ignored broadcast and
// heartbeat send errors, so the run hung until heartbeat loss killed
// the worker.
func TestCoordWriteFailureRedials(t *testing.T) {
	flat, inputs := distDesign(t, 2, 2)
	m := distMachine(t, "hypercube:1")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	single, err := (&exec.Runner{Inputs: inputs}).Run(sc, flat)
	if err != nil {
		t.Fatal(err)
	}

	inner := Inproc()
	addrs, stop := startWorkers(t, inner, 1)
	defer stop()
	// The first dialed connection survives the handshake (write 1) and
	// the start bundle (write 2), then every write fails.
	co := &Coordinator{
		Transport: &flakyTransport{Transport: inner, failAfter: 2},
		Addrs:     addrs,
		Runner:    &exec.Runner{Inputs: inputs},
		// A tight heartbeat makes the coordinator hit the broken writes
		// quickly; the long peer timeout proves completion came from the
		// redial path, not from declaring the worker dead.
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    60 * time.Second,
	}
	done := make(chan struct{})
	var dist *exec.Result
	var runErr error
	go func() {
		defer close(done)
		dist, runErr = co.Run(context.Background(), sc, flat)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("run hung on a half-closed connection")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !reflect.DeepEqual(dist.Outputs, single.Outputs) {
		t.Errorf("outputs diverged:\n dist   %v\n single %v", dist.Outputs, single.Outputs)
	}
	reconnects := 0
	for _, e := range dist.Trace.Events {
		if e.Kind == trace.PeerConnected && e.Note == "reconnect" {
			reconnects++
		}
	}
	if reconnects == 0 {
		t.Error("trace records no reconnect; the write failure was not treated as a connection break")
	}
}

// staleReadTransport hands out a half-closed first connection, like
// flakyTransport's, whose read error — what its reader sees once the
// daemon drops it for the redialled replacement — is held back until
// the replacement has carried something past its Hello: until the link
// has reattached to it.
type staleReadTransport struct {
	Transport
	mu       sync.Mutex
	dials    int
	once     sync.Once
	attached chan struct{}
}

func (t *staleReadTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.dials++; t.dials {
	case 1:
		return &staleReadConn{flakyConn: &flakyConn{Conn: c, failAfter: 2}, attached: t.attached}, nil
	case 2:
		return &replacementConn{Conn: c, attached: func() { t.once.Do(func() { close(t.attached) }) }}, nil
	}
	return c, nil
}

type staleReadConn struct {
	*flakyConn
	attached <-chan struct{}
}

func (c *staleReadConn) ReadFrame() (Frame, error) {
	f, err := c.flakyConn.ReadFrame()
	if err != nil {
		select {
		case <-c.attached:
		case <-time.After(5 * time.Second): // no replacement came: let the reader go
		}
	}
	return f, err
}

// replacementConn reports the first write after its Hello.
type replacementConn struct {
	Conn
	hello    bool
	attached func()
}

func (c *replacementConn) WriteFrame(f Frame) error {
	if c.hello {
		c.attached()
	}
	c.hello = true
	return c.Conn.WriteFrame(f)
}

func (c *replacementConn) WriteFrameBuffered(f Frame) error {
	c.attached()
	return c.Conn.WriteFrameBuffered(f)
}

func (c *replacementConn) Flush() error {
	c.attached()
	return c.Conn.Flush()
}

// TestStaleReadErrorKeepsTheNewLink: the read error of a connection a
// redial has already replaced is stale. It must not break the
// replacement: the run reconnects once. Before, the late error detached
// the new link and redialled, and when every replaced connection's
// error came in after its replacement's Welcome (the daemon closes the
// old connection as it takes the new one) the run redialled until its
// caller gave up.
func TestStaleReadErrorKeepsTheNewLink(t *testing.T) {
	flat, inputs := distDesign(t, 2, 2)
	m := distMachine(t, "hypercube:1")
	sc, err := sched.ETF{}.Schedule(flat.Graph, m)
	if err != nil {
		t.Fatal(err)
	}
	inner := Inproc()
	addrs, stop := startWorkers(t, inner, 1)
	defer stop()
	co := &Coordinator{
		Transport:      &staleReadTransport{Transport: inner, attached: make(chan struct{})},
		Addrs:          addrs,
		Runner:         &exec.Runner{Inputs: inputs},
		HeartbeatEvery: 20 * time.Millisecond,
		PeerTimeout:    60 * time.Second,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	dist, err := co.Run(ctx, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	reconnects := 0
	for _, e := range dist.Trace.Events {
		if e.Kind == trace.PeerConnected && e.Note == "reconnect" {
			reconnects++
		}
	}
	if reconnects != 1 {
		t.Errorf("trace records %d reconnects, want 1: a replaced connection's read error broke its replacement", reconnects)
	}
}

// TestCalibrateProbeTimeout: a worker that answers the handshake but
// swallows pings must fail calibration when its context ends, not
// block forever on a pong that never comes.
func TestCalibrateProbeTimeout(t *testing.T) {
	tr := Inproc()
	ln, err := tr.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		f, err := c.ReadFrame()
		if err != nil || f.Type != THello {
			c.Close()
			return
		}
		c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})})
		for { // read pings, never pong
			if _, err := c.ReadFrame(); err != nil {
				return
			}
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := Calibrate(ctx, tr, "w0", 2)
		errCh <- err
	}()
	select {
	case err := <-errCh:
		if err == nil || !strings.Contains(err.Error(), "timed out") {
			t.Fatalf("got %v, want a probe timeout error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("calibration spun forever on a lost pong")
	}
}
