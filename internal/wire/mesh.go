package wire

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/exec"
)

// The mesh data plane. Through the coordinator every cross-worker
// message pays two hops (sender -> coordinator -> consumer); the mesh
// lets workers dial each other directly and send destination-prefixed
// Data frames point-to-point, while the coordinator keeps arbitrating
// membership, heartbeats and the recovery barrier over its own links.
//
// Topology: worker i dials every lower-indexed worker j < i (one
// connection per pair, shared by both directions), using the same
// transport and listener the worker daemon already runs. A mesh link
// reuses the Link machinery — wids, cumulative acks, outbox replay
// after a reconnect — so a broken worker-to-worker connection heals
// exactly like a broken coordinator connection.
//
// Fallback: until a pair's link is established (the peer hasn't
// received its start bundle yet, or worker-to-worker dialing fails
// outright while the coordinator can still reach both), data frames
// fall back to the coordinator relay. Correctness never depends on
// the mesh: each message travels on exactly one link, is sequenced
// there, and replays there after a reconnect.

// Frames leave when a burst ends: small data frames buffer per peer
// until the sender's session flushes its plane (the end of a burst of
// sends, see exec.RemotePlane), goes idle or reaches a barrier. An ack
// a link owes rides the next of those flushes, or the heartbeat's — and
// a receiver that never sends writes it from its reader once ackEvery
// sequenced frames wait on it, long before the sender's outbox cap.
const ackEvery = DefaultMaxOutbox / 64

// meshConfig is the initial wiring of a worker's mesh.
type meshConfig struct {
	transport Transport
	runID     string
	self      int      // this worker's index
	addrs     []string // worker listen addresses by index
	peerOf    []int    // pe -> worker index
	logf      func(format string, args ...any)
}

// mesh is one worker's set of direct links to its peers.
type mesh struct {
	cfg meshConfig
	// deliver is the session's Deliver. A worker's mesh goes up before
	// its session exists, so its links are forming while the session is
	// built; ready closes once deliver is set, and a data frame a peer
	// gets in first waits for that.
	deliver func(exec.RemoteMsg) error
	ready   chan struct{}

	ctx    context.Context
	cancel context.CancelFunc

	// wg tracks the dial loops and connection readers so close can
	// wait them out: a straggler would outlive the run that owns
	// deliver and logf (a test's t.Logf, typically).
	wg sync.WaitGroup

	mu sync.Mutex
	// addrs and peerOf are the live membership, seeded from cfg and
	// updated when a worker joins mid-run (the joiner, holding the
	// highest index, dials us — existing dial loops never change).
	addrs  []string
	peerOf []int
	peers  map[int]*Link // established (possibly detached) links by worker index
	lost   map[int]bool  // workers declared dead or departed
	closed bool
}

// newMesh starts the dial loops toward lower-indexed peers and returns
// the mesh. Higher-indexed peers dial us; their connections arrive
// through the worker daemon's accept path (acceptPeer). A nil deliver
// is supplied later, by deliverTo.
func newMesh(cfg meshConfig, deliver func(exec.RemoteMsg) error) *mesh {
	ctx, cancel := context.WithCancel(context.Background())
	m := &mesh{cfg: cfg, ready: make(chan struct{}), ctx: ctx, cancel: cancel,
		addrs:  append([]string(nil), cfg.addrs...),
		peerOf: append([]int(nil), cfg.peerOf...),
		peers:  map[int]*Link{}, lost: map[int]bool{}}
	if deliver != nil {
		m.deliverTo(deliver)
	}
	for j, addr := range cfg.addrs {
		if j < cfg.self && addr != "" {
			m.spawn(func() { m.dialLoop(j, addr) })
		}
	}
	return m
}

// deliverTo names the session inbound data frames go to, once.
func (m *mesh) deliverTo(deliver func(exec.RemoteMsg) error) {
	m.deliver = deliver
	close(m.ready)
}

// spawn runs fn on a goroutine tracked by the close barrier. It
// refuses (returning false) once the mesh is closed, so close never
// races a late wg.Add against its Wait.
func (m *mesh) spawn(fn func()) bool {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false
	}
	m.wg.Add(1)
	m.mu.Unlock()
	go func() {
		defer m.wg.Done()
		fn()
	}()
	return true
}

// update installs new membership after a mid-run join: the address
// list grows and revived processors map to the new worker. No dial
// loops start here — the joiner holds the highest index and dials us.
func (m *mesh) update(addrs []string, peerOf []int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if len(addrs) > 0 {
		m.addrs = append([]string(nil), addrs...)
	}
	if len(peerOf) > 0 {
		m.peerOf = append([]int(nil), peerOf...)
	}
}

// linkFor returns the direct link to the worker hosting pe, or nil
// when the frame should fall back to the coordinator relay (processor
// hosted locally — a caller bug —, link not yet established, or peer
// declared dead: the relay drops frames for dead workers, which is
// what recovery wants).
func (m *mesh) linkFor(pe int) *Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pe < 0 || pe >= len(m.peerOf) {
		return nil
	}
	j := m.peerOf[pe]
	if j == m.cfg.self {
		return nil
	}
	if m.lost[j] || m.closed {
		return nil
	}
	return m.peers[j]
}

// peer returns (creating if needed) the link to worker j, or nil if j
// is dead or the mesh is closed.
func (m *mesh) peer(j int) *Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.lost[j] {
		return nil
	}
	p := m.peers[j]
	if p == nil {
		p = NewLink(nil)
		m.peers[j] = p
	}
	return p
}

// dialLoop establishes and maintains the link to lower-indexed worker
// j: dial, handshake, attach, read until the connection breaks, redial.
// A handshake rejection usually means the peer hasn't received its
// start bundle yet; retry with backoff until the run ends.
func (m *mesh) dialLoop(j int, addr string) {
	backoff := 5 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
	for m.ctx.Err() == nil {
		c, err := dialBackoff(m.ctx, m.cfg.transport, addr, 25*time.Millisecond, backoffCap)
		if err != nil {
			return // ctx cancelled
		}
		p := m.peer(j)
		if p == nil {
			c.Close()
			return
		}
		rcvd, err := m.helloPeer(c, p.Rcvd())
		if err != nil {
			c.Close()
			m.cfg.logf("mesh hello to worker %d (%s) failed: %v", j, addr, err)
			select {
			case <-time.After(backoff):
			case <-m.ctx.Done():
				return
			}
			if backoff *= 2; backoff > backoffCap {
				backoff = backoffCap
			}
			continue
		}
		backoff = 5 * time.Millisecond
		if err := p.Reattach(c, rcvd); err != nil {
			p.Detach()
			continue
		}
		m.cfg.logf("mesh link to worker %d (%s) up", j, addr)
		m.readConn(j, p, c)
		m.mu.Lock()
		lost := m.lost[j]
		m.mu.Unlock()
		if lost {
			return // the peer said goodbye: a redial would only be closed again
		}
	}
}

// helloPeer performs the mesh handshake on a fresh connection and
// returns the peer's receive watermark, bounded by a timeout.
func (m *mesh) helloPeer(c Conn, rcvd uint64) (uint64, error) {
	h := Hello{Proto: ProtoVersion, Run: m.cfg.runID, Rcvd: rcvd, Peer: m.cfg.self + 1}
	type res struct {
		rcvd uint64
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		w, err := handshake(c, h)
		ch <- res{w.Rcvd, err}
	}()
	select {
	case r := <-ch:
		return r.rcvd, r.err
	case <-time.After(handshakeTimeout):
		c.Close()
		return 0, fmt.Errorf("wire: mesh handshake timed out")
	case <-m.ctx.Done():
		c.Close()
		return 0, m.ctx.Err()
	}
}

// acceptPeer attaches an inbound mesh connection from worker j (the
// daemon already read its Hello). The Welcome carries our watermark
// and must precede the outbox replay that Reattach performs.
func (m *mesh) acceptPeer(j int, c Conn, peerRcvd uint64, frames <-chan Frame, rerr <-chan error) error {
	m.mu.Lock()
	known := len(m.addrs)
	m.mu.Unlock()
	if j < 0 || j >= known || j == m.cfg.self {
		return fmt.Errorf("wire: mesh hello from out-of-range worker %d", j)
	}
	p := m.peer(j)
	if p == nil {
		return fmt.Errorf("wire: mesh hello from dead worker %d", j)
	}
	if err := c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion, Rcvd: p.Rcvd()})}); err != nil {
		return err
	}
	if err := p.Reattach(c, peerRcvd); err != nil {
		p.Detach()
		return err
	}
	m.cfg.logf("mesh link from worker %d up", j)
	if !m.spawn(func() { m.readChan(j, p, c, frames, rerr) }) {
		return fmt.Errorf("wire: mesh closed")
	}
	return nil
}

// readConn pumps a dialed connection until it breaks.
func (m *mesh) readConn(j int, p *Link, c Conn) {
	for {
		f, err := c.ReadFrame()
		if err != nil {
			p.DetachIf(c)
			return
		}
		m.handleFrame(j, p, f)
	}
}

// readChan pumps an accepted connection (frames arrive through the
// daemon's hello reader) until it breaks.
func (m *mesh) readChan(j int, p *Link, c Conn, frames <-chan Frame, rerr <-chan error) {
	for {
		select {
		case f := <-frames:
			m.handleFrame(j, p, f)
		case <-rerr:
			p.DetachIf(c)
			return
		case <-m.ctx.Done():
			return
		}
	}
}

// handleFrame processes one frame from mesh peer j: the link absorbs
// acks and replays, data is delivered straight into the session, a
// goodbye tears the link down immediately (the peer departed
// gracefully, so nothing waits out the heartbeat budget), anything else
// is connection noise.
func (m *mesh) handleFrame(j int, p *Link, f Frame) {
	fresh, unacked := p.Receive(f)
	if unacked >= ackEvery {
		if err := p.Flush(); err != nil {
			p.Detach()
		}
	}
	if !fresh {
		return
	}
	switch f.Type {
	case TData:
		msg, err := DecodeMsg(f.Payload)
		if err != nil {
			m.cfg.logf("mesh: bad data frame: %v", err)
			return
		}
		putBuf(f.Payload) // DecodeMsg copies everything out
		select {
		case <-m.ready:
		case <-m.ctx.Done():
			return // the run ended before its session began
		}
		if err := m.deliver(msg); err != nil {
			m.cfg.logf("mesh: deliver: %v", err)
		}
	case TBye:
		m.cfg.logf("mesh: worker %d departed; closing link", j)
		m.markLost(j)
	case THeartbeat, TPing, TPong:
		// Liveness is the coordinator's job; ignore.
	default:
		m.cfg.logf("mesh: unexpected %s frame", f.Type)
	}
}

// flushAll drives every peer's coalescing buffer and owed ack onto the
// wire. Called at the end of every burst of sends, on idle and pause
// barriers, when the coordinator link's inbound drains, and on the
// heartbeat.
func (m *mesh) flushAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.peers {
		if err := p.Flush(); err != nil {
			p.Detach()
		}
	}
}

// pruneDead closes links to workers the recovery plan declared dead:
// every processor they hosted is dead, so nothing routes there again.
func (m *mesh) pruneDead(dead []bool) {
	m.mu.Lock()
	n := len(m.addrs)
	peerOf := append([]int(nil), m.peerOf...)
	m.mu.Unlock()
	for j := 0; j < n; j++ {
		if j == m.cfg.self {
			continue
		}
		gone := false
		for pe, w := range peerOf {
			if w != j || pe >= len(dead) {
				continue
			}
			if !dead[pe] {
				gone = false
				break
			}
			gone = true
		}
		if gone {
			m.markLost(j)
		}
	}
}

// markLost drops worker j from the mesh.
func (m *mesh) markLost(j int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.lost[j] {
		return
	}
	m.lost[j] = true
	if p := m.peers[j]; p != nil {
		p.Close()
		delete(m.peers, j)
	}
}

// close tears the mesh down: dial loops stop, links close, pooled
// outbox payloads return to the pool. Attached peers get a goodbye
// frame first, so a graceful departure tears down the remote end of
// each link immediately instead of leaving it to rot until the next
// membership update.
func (m *mesh) close() {
	m.cancel()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for j, p := range m.peers {
		p.SendRaw(Frame{Type: TBye}) // best effort; detached links just skip it
		p.Close()
		delete(m.peers, j)
	}
	m.mu.Unlock()
	// Closing the links broke every blocking read, so this terminates:
	// wait out the dial loops and readers before the caller moves on to
	// recycle the run (and, in tests, finish the t that owns logf).
	m.wg.Wait()
}
