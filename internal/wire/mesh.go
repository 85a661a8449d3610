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
//
// Parking: a mesh connection outlives its run. When a run ends, each
// side takes the connection off its link, says goodbye (TBye) on it and
// sends nothing more; a side that reads the peer's goodbye reads
// nothing more, answering it first if it has not said its own. A
// connection both goodbyes crossed within goodbyeWait is clean both
// ways, so the next run between the same two daemons opens on it: the
// dialler parks it in its daemon's pool, keyed by the peer's listen
// address, and leases it on its next start bundle; the accepting
// daemon's end awaits a Hello again. A leased connection that no longer
// answers is closed and the peer dialled once. Each run still gets
// fresh links — wids, watermarks, outbox —; only the socket carries over.

// Frames leave when a burst ends: small data frames buffer per peer
// until the sender's session flushes its plane (the end of a burst of
// sends, see exec.RemotePlane), reports itself or reaches a barrier. An ack
// a link owes rides the next of those flushes, or the heartbeat's — and
// a receiver that never sends writes it from its reader once ackEvery
// sequenced frames wait on it, long before the sender's outbox cap.
const ackEvery = DefaultMaxOutbox / 64

// meshConfig is the initial wiring of a worker's mesh.
type meshConfig struct {
	transport Transport
	idle      *idleConns // the daemon's parked connections to the workers it dials
	runID     string
	self      int      // this worker's index
	addrs     []string // worker listen addresses by index
	peerOf    []int    // pe -> worker index
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
	// finished is set when the coordinator finishes the run, before this
	// worker's partial leaves: a link not up by then is never needed, and
	// a peer may end its share of the run as soon as the last partial
	// is in.
	finished atomic.Bool

	// wg tracks the dial loops and connection readers so close can
	// wait them out: a straggler would outlive the run that owns
	// deliver.
	wg sync.WaitGroup

	mu sync.Mutex
	// addrs and peerOf are the live membership, seeded from cfg and
	// updated when a worker joins mid-run (the joiner, holding the
	// highest index, dials us — existing dial loops never change).
	addrs  []string
	peerOf []int
	peers  map[int]*Link // established (possibly detached) links by worker index
	lost   map[int]bool  // workers declared dead or departed
	// conns holds every connection a handshake or reader is on, and
	// whether this side's goodbye is on it.
	conns  map[Conn]bool
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
		peers:  map[int]*Link{}, lost: map[int]bool{}, conns: map[Conn]bool{}}
	if deliver != nil {
		m.deliverTo(deliver)
	}
	for j, addr := range cfg.addrs {
		if j < cfg.self && addr != "" {
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.dialLoop(j, addr)
			}()
		}
	}
	return m
}

// deliverTo names the session inbound data frames go to, once.
func (m *mesh) deliverTo(deliver func(exec.RemoteMsg) error) {
	m.deliver = deliver
	close(m.ready)
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

// linkFor returns the link to the worker hosting pe, or nil when the
// frame should fall back to the coordinator relay (processor hosted
// locally — a caller bug —, no dial loop or accepted connection has
// created the link yet, or peer declared dead: the relay drops frames
// for dead workers, which is what recovery wants). A link exists from
// the dial on, before its handshake: until Reattach its frames wait in
// the outbox, and replay there.
func (m *mesh) linkFor(pe int) *Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if pe < 0 || pe >= len(m.peerOf) {
		return nil
	}
	if j := m.peerOf[pe]; j != m.cfg.self {
		return m.peers[j] // none once j is lost or the mesh closed
	}
	return nil
}

// peerLocked returns (creating if needed) the link to worker j, or nil
// if j is dead or the mesh is closed. Callers hold m.mu.
func (m *mesh) peerLocked(j int) *Link {
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
// j: lease a parked connection or dial, handshake, attach, read until
// the connection breaks or the run ends, redial. A handshake rejection
// means the peer's run has not begun or has ended; retry with backoff
// until this run ends. Once the run has finished no dial starts, and a
// rejection is no failure: the peer may rightly have ended its share.
func (m *mesh) dialLoop(j int, addr string) {
	backoff := 5 * time.Millisecond
	const backoffCap = 500 * time.Millisecond
	lease := true // until a leased connection fails to answer
	for m.ctx.Err() == nil && !m.finished.Load() {
		var c Conn
		if lease {
			c = m.cfg.idle.lease(addr)
		}
		leased := c != nil
		if !leased {
			var err error
			if c, err = dialBackoff(m.ctx, m.cfg.transport, addr, 25*time.Millisecond, backoffCap); err != nil {
				return // ctx cancelled
			}
		}
		p := m.open(j, c)
		if p == nil {
			m.cfg.idle.park(addr, c) // unused: as clean as it came
			return
		}
		// The end of the run does not cut a handshake short: a welcomed
		// connection is said goodbye on and parked instead (attach), and
		// hangUp bounds what the close waits.
		t := time.AfterFunc(handshakeTimeout, func() { c.Close() })
		w, err := handshake(c, Hello{Proto: ProtoVersion, Run: m.cfg.runID, Rcvd: p.Rcvd(), Peer: m.cfg.self + 1})
		if !t.Stop() {
			err = errors.New("wire: mesh handshake timed out")
		}
		if err != nil {
			m.untrack(c)
			if errors.Is(err, errRefused) {
				m.cfg.idle.park(addr, c) // a refusal leaves it awaiting a Hello
				if m.finished.Load() {
					return
				}
			} else {
				c.Close()
				if leased {
					lease = false // the peer's daemon went away: dial once
					continue
				}
			}
			slog.Warn("mesh hello failed", "run", m.cfg.runID, "worker", j, "addr", addr, "err", err)
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
		if err := m.attach(p, c, w.Rcvd); err != nil {
			continue
		}
		// A link comes up once a run, here or in acceptPeer: typed
		// attributes keep a record below the handler's level free of
		// allocation.
		slog.LogAttrs(m.ctx, slog.LevelDebug, "mesh link up", slog.String("run", m.cfg.runID),
			slog.Int("worker", j), slog.String("addr", addr))
		if m.read(j, p, c, c.ReadFrame) {
			m.cfg.idle.park(addr, c)
		}
		m.mu.Lock()
		lost := m.lost[j]
		m.mu.Unlock()
		if lost {
			return // the peer said goodbye: a redial would only be closed again
		}
	}
}

// open returns (creating if needed) the link to worker j and registers
// c, which a handshake is about to go out on; nil if j is dead or the
// mesh is closed.
func (m *mesh) open(j int, c Conn) *Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(j)
	if p != nil {
		m.conns[c] = false
	}
	return p
}

func (m *mesh) untrack(c Conn) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.conns, c)
}

// attach installs a welcomed connection on p. A mesh that closed during
// the handshake says goodbye on it at once, so its reader waits only for
// the peer's.
func (m *mesh) attach(p *Link, c Conn, peerRcvd uint64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := p.Reattach(c, peerRcvd); err != nil {
		delete(m.conns, c)
		p.DetachIf(c)
		c.Close()
		return err
	}
	if m.closed {
		m.byeLocked(p)
	}
	return nil
}

// acceptPeer hosts an inbound mesh connection, whose Hello the daemon
// read, until its link ends. The Welcome carries our watermark and
// precedes the outbox replay Reattach performs. The connection comes
// back awaiting a Hello again when the link ended with both goodbyes, or
// when the Hello is refused; otherwise it is closed, and nil returned.
func (m *mesh) acceptPeer(ic inboundConn) *inboundConn {
	j := ic.hello.Peer - 1
	m.mu.Lock()
	var p *Link
	if j >= 0 && j < len(m.addrs) && j != m.cfg.self {
		p = m.peerLocked(j)
	}
	if p == nil {
		m.mu.Unlock()
		return refuse(ic, fmt.Sprintf("mesh hello from worker %d: out of range, dead, or after the run", j))
	}
	m.conns[ic.c] = false
	m.wg.Add(1) // close waits for this reader as for its own
	m.mu.Unlock()
	defer m.wg.Done()
	welcome := Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion, Rcvd: p.Rcvd()})}
	if ic.c.WriteFrame(welcome) != nil || m.attach(p, ic.c, ic.hello.Rcvd) != nil {
		m.untrack(ic.c)
		ic.c.Close()
		return nil
	}
	slog.LogAttrs(m.ctx, slog.LevelDebug, "mesh link up", slog.String("run", m.cfg.runID), slog.Int("worker", j))
	if m.read(j, p, ic.c, ic.next) {
		return &ic
	}
	return nil
}

// read pumps worker j's connection c, frame by frame from next, until it
// breaks or the peer says goodbye, and reports whether c carried both
// goodbyes.
func (m *mesh) read(j int, p *Link, c Conn, next func() (Frame, error)) bool {
	for {
		f, err := next()
		if err != nil {
			m.untrack(c)
			p.DetachIf(c)
			c.Close()
			return false
		}
		if f.Type == TBye {
			return m.parted(j, p, c)
		}
		m.handleFrame(j, p, f)
	}
}

// byeLocked takes p off its connection and says goodbye there: this
// side sends nothing more on it. Callers hold m.mu.
func (m *mesh) byeLocked(p *Link) {
	if c := p.Release(); c != nil {
		m.conns[c] = c.WriteFrame(Frame{Type: TBye}) == nil
	}
}

// parted ends worker j's link at the peer's goodbye: this side answers
// it unless it said its own already, and the peer leaves the run (it
// ended, or departed gracefully: nothing waits out the heartbeat
// budget). It reports whether c carried both goodbyes and so can carry
// another run; if not, c is closed.
func (m *mesh) parted(j int, p *Link, c Conn) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.Conn() == c {
		m.byeLocked(p)
	}
	said := m.conns[c]
	delete(m.conns, c)
	m.lostLocked(j)
	if !said {
		c.Close()
	}
	return said
}

// handleFrame processes one frame from mesh peer j: the link absorbs
// acks and replays, data is delivered straight into the session,
// anything else is connection noise.
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
			slog.Warn("mesh: bad data frame", "run", m.cfg.runID, "worker", j, "err", err)
			return
		}
		putBuf(f.Payload) // DecodeMsg copies everything out
		select {
		case <-m.ready:
		case <-m.ctx.Done():
			return // the run ended before its session began
		}
		if err := m.deliver(msg); err != nil {
			slog.Warn("mesh: deliver failed", "run", m.cfg.runID, "worker", j, "err", err)
		}
	case THeartbeat, TPing, TPong:
		// Liveness is the coordinator's job; ignore.
	default:
		slog.Warn("mesh: unexpected frame", "run", m.cfg.runID, "worker", j, "frame", f.Type)
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
	defer m.mu.Unlock()
	for j := range m.addrs {
		if j == m.cfg.self {
			continue
		}
		gone := false
		for pe, w := range m.peerOf {
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
			m.lostLocked(j)
		}
	}
}

// lostLocked drops worker j from the mesh. Callers hold m.mu.
func (m *mesh) lostLocked(j int) {
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
// outbox payloads return to the pool. With bye — the coordinator ended
// the run with a goodbye — each link says goodbye on its connection and
// close waits up to goodbyeWait for the peers', so the connections can
// carry the next run; without, every connection closes at once.
func (m *mesh) close(bye bool) {
	m.cancel()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	for j, p := range m.peers {
		if bye {
			m.byeLocked(p)
		}
		p.Close()
		delete(m.peers, j)
	}
	m.mu.Unlock()
	if bye {
		t := time.AfterFunc(goodbyeWait, m.hangUp)
		defer t.Stop()
	} else {
		m.hangUp()
	}
	// Every blocking read ends at a goodbye or a closed connection, so
	// this terminates: wait out the dial loops and readers before the
	// caller moves on to recycle the run.
	m.wg.Wait()
}

// hangUp closes every connection a handshake or reader is still on.
func (m *mesh) hangUp() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c := range m.conns {
		c.Close()
	}
}
