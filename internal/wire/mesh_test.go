package wire

import (
	"log/slog"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/pits"
)

// acceptMeshConns runs a minimal stand-in for the worker daemon's
// accept path: every inbound connection's Hello is read and routed into
// the mesh, with a pump goroutine feeding subsequent frames.
func acceptMeshConns(t *testing.T, ln Listener, m *mesh) {
	t.Helper()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c Conn) {
				f, err := c.ReadFrame()
				if err != nil || f.Type != THello {
					c.Close()
					return
				}
				h, err := decJSON[Hello](f.Payload, "hello")
				if err != nil || h.Peer == 0 {
					c.Close()
					return
				}
				frames := make(chan Frame, 64)
				rerr := make(chan error, 1)
				go func() {
					for {
						f, err := c.ReadFrame()
						if err != nil {
							rerr <- err
							return
						}
						frames <- f
					}
				}()
				m.acceptPeer(inboundConn{c: c, hello: h, frames: frames, rerr: rerr})
			}(c)
		}
	}()
}

// meshPair brings up worker 0 (delivering into deliver0) and worker 1
// (delivering nowhere) over one inproc transport, and returns both
// meshes and worker 1's established link to worker 0. Established means
// attached: the link exists from the dial on, and frames sent before its
// handshake wait in the outbox and replay at Reattach, flushed.
func meshPair(t *testing.T, runID string, deliver0 func(exec.RemoteMsg) error) (m0, m1 *mesh, l *Link) {
	t.Helper()
	tr := Inproc()
	ln, err := tr.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	cfg := meshConfig{transport: tr, idle: &idleConns{}, runID: runID,
		addrs: []string{"w0", "w1"}, peerOf: []int{0, 1}}
	cfg0 := cfg
	cfg0.self = 0
	m0 = newMesh(cfg0, deliver0)
	t.Cleanup(func() { m0.close(false) })
	acceptMeshConns(t, ln, m0)

	cfg1 := cfg
	cfg1.self = 1
	m1 = newMesh(cfg1, func(exec.RemoteMsg) error { return nil })
	t.Cleanup(func() { m1.close(false) })

	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if l = m1.linkFor(0); l != nil && l.Conn() != nil {
			return m0, m1, l
		}
	}
	t.Fatal("mesh link from worker 1 to worker 0 never came up")
	return nil, nil, nil
}

// TestMeshDirectDelivery pins the peer-to-peer path end to end without
// a coordinator: worker 1 dials worker 0, data frames coalesce until an
// explicit flush, arrive in order, and the batched cumulative ack
// prunes the sender's outbox.
func TestMeshDirectDelivery(t *testing.T) {
	got := make(chan exec.RemoteMsg, 16)
	m0, m1, l := meshPair(t, "r1", func(m exec.RemoteMsg) error { got <- m; return nil })

	want := make([]exec.RemoteMsg, 3)
	for i := range want {
		want[i] = exec.RemoteMsg{From: "a", To: "b", Var: "x",
			FromPE: 1, ToPE: 0, Seq: uint64(i + 1), Epoch: 1, Val: pits.Num(float64(40 + i))}
		b, err := AppendMsg(getBuf(), want[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SendData(TData, b, true); err != nil {
			t.Fatal(err)
		}
	}
	// Frames are coalescing in the peer buffer: nothing may arrive
	// before the flush.
	select {
	case m := <-got:
		t.Fatalf("message %v arrived before flush", m)
	case <-time.After(20 * time.Millisecond):
	}
	m1.flushAll()
	for i := range want {
		select {
		case m := <-got:
			if !reflect.DeepEqual(m, want[i]) {
				t.Errorf("message %d: got %+v, want %+v", i, m, want[i])
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never delivered", i)
		}
	}

	// The receiver owes one batched cumulative ack; its flush must
	// prune the sender's outbox.
	m0.flushAll()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		l.mu.Lock()
		n := len(l.outbox)
		l.mu.Unlock()
		if n == 0 {
			break
		}
		if !time.Now().Before(deadline) {
			t.Fatalf("sender outbox still holds %d frames after ack flush", n)
		}
	}
}

// TestMeshAcksWithoutSending: worker 0 only receives, so no burst of
// its own ever flushes the ack it owes worker 1's link; its reader
// writes that ack once enough frames wait on it. Twice the outbox cap
// of data frames then pass without failing the sender's link.
func TestMeshAcksWithoutSending(t *testing.T) {
	const total = 2 * DefaultMaxOutbox
	var got atomic.Int64
	_, m1, l := meshPair(t, "r-acks", func(exec.RemoteMsg) error { got.Add(1); return nil })
	for i := 0; i < total; i++ {
		b, err := AppendMsg(getBuf(), exec.RemoteMsg{From: "a", To: "b", Var: "x",
			FromPE: 1, ToPE: 0, Seq: uint64(i + 1), Epoch: 1, Val: pits.Num(float64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.SendData(TData, b, true); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if i%64 == 63 {
			m1.flushAll() // the sender's burst ends
		}
	}
	m1.flushAll()
	for deadline := time.Now().Add(20 * time.Second); got.Load() < total; time.Sleep(2 * time.Millisecond) {
		if !time.Now().Before(deadline) {
			t.Fatalf("%d of %d frames delivered", got.Load(), total)
		}
	}
}

// TestMeshLostPeerFallsBack: once the recovery plan declares a worker
// dead, linkFor routes its processors back to the relay (nil).
func TestMeshLostPeerFallsBack(t *testing.T) {
	tr := Inproc()
	cfg := meshConfig{transport: tr, idle: &idleConns{}, runID: "r2", self: 1,
		addrs: []string{"", "w1", ""}, peerOf: []int{0, 1, 2}}
	m := newMesh(cfg, func(exec.RemoteMsg) error { return nil })
	defer m.close(false)
	peer := func(j int) *Link {
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.peerLocked(j)
	}

	// Fake an established link to worker 2.
	p := peer(2)
	if p == nil {
		t.Fatal("peer(2) returned nil")
	}
	if m.linkFor(2) == nil {
		t.Fatal("linkFor(2) should route to the fake established link")
	}
	// pe 0 hosted by worker 0 (no link): relay. pe 1 is local: relay.
	if m.linkFor(0) != nil || m.linkFor(1) != nil {
		t.Error("unestablished and local processors must fall back to relay")
	}

	m.pruneDead([]bool{false, false, true})
	if m.linkFor(2) != nil {
		t.Error("linkFor must return nil for a worker declared dead")
	}
	if peer(2) != nil {
		t.Error("peer must not resurrect a dead worker")
	}
}

// TestMeshDialEndsWithTheRun: a peer may end its share of a run as soon
// as the last partial is in, and a dial that reaches it then is refused.
// Once the coordinator has finished the run here, that refusal is no
// failure and no dial follows it.
func TestMeshDialEndsWithTheRun(t *testing.T) {
	tr := Inproc()
	lis, err := tr.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	logged := captureLog(t, nil)
	idle := &idleConns{}
	m := newMesh(meshConfig{transport: tr, idle: idle, runID: "r", self: 1,
		addrs: []string{"w0", "self"}, peerOf: []int{0, 1}}, func(exec.RemoteMsg) error { return nil })
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		if _, err := c.ReadFrame(); err != nil {
			return
		}
		m.finished.Store(true) // the run finishes while the Hello is on its way
		c.WriteFrame(Frame{Type: TError, Payload: encJSON(ErrorNote{Msg: "unknown run"})})
	}()
	for deadline := time.Now().Add(5 * time.Second); parked(idle) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the refused connection was never parked")
		}
	}
	m.close(false)
	for _, r := range logged.records() {
		if r.Level >= slog.LevelWarn && r.Attrs["run"].String() == "r" {
			t.Errorf("a finished run logged a refused dial: %s: %v", r.Msg, r.err())
		}
	}
}

// TestMeshHelloRejectionLogsReason: a mesh dial to a daemon that does
// not host the run is refused with the daemon's reason, and the dialer
// logs that reason (not just "expected welcome") before it retries.
func TestMeshHelloRejectionLogsReason(t *testing.T) {
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 1)
	defer stop()
	logged := make(chan logRecord, 64)
	captureLog(t, func(r logRecord) {
		select {
		case logged <- r:
		default:
		}
	})
	m := newMesh(meshConfig{transport: tr, idle: &idleConns{}, runID: "no-such-run", self: 1,
		addrs: []string{addrs[0], "self"}, peerOf: []int{0, 1}}, func(exec.RemoteMsg) error { return nil })
	defer m.close(false)
	deadline := time.After(5 * time.Second)
	for {
		select {
		case r := <-logged:
			if err := r.err(); r.Level == slog.LevelWarn && r.Attrs["run"].String() == "no-such-run" &&
				r.Attrs["worker"].String() == "0" && err != nil && strings.Contains(err.Error(), "unknown run") {
				return
			}
		case <-deadline:
			t.Fatal("the daemon's rejection reason never reached the dialer's log")
		}
	}
}
