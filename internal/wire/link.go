package wire

import (
	"errors"
	"fmt"
	"sync"
)

// Link is the reliable layer over one peer relationship. Frames that
// must survive a reconnect (Data, Idle, Crash, Parked, Resume, and the
// rest of the run protocol) are sequenced with wids; the receiver acks
// its cumulative watermark, the sender keeps unacked frames in an
// outbox, and after a reconnect the handshake exchanges watermarks and
// the outbox replays everything the peer missed. Unsequenced frames
// (handshake, acks, heartbeats, echoes) belong to the connection, not
// the relationship, and are never replayed.
//
// The same wid discipline the in-process reliable transport applies to
// messages (sequence numbers, cumulative dedup) applied to frames.
type Link struct {
	mu     sync.Mutex
	conn   Conn
	next   uint64     // last wid assigned
	outbox []outFrame // sent but unacked, ascending wid
	rcvd   uint64     // highest wid received (cumulative: TCP keeps order)
	max    int        // outbox cap; 0 means DefaultMaxOutbox
	failed error      // sticky: set when the outbox cap is exceeded
	dirty  bool       // buffered frames await a Flush
	owed   int        // sequenced frames arrived since the last ack went out

	// Accumulated byte counters of connections that came and went.
	pastIn, pastOut int64
}

// outFrame is an outbox entry. pooled marks payloads owned by the
// frame pool: they are recycled once the peer acks them (or the link
// closes). Payloads shared across several links — a broadcast control
// frame encoded once — must not carry the flag, or the same array
// would enter the pool once per link.
type outFrame struct {
	f      Frame
	pooled bool
}

// DefaultMaxOutbox is the per-link unacked-frame cap applied when
// MaxOutbox is not set. A mesh multiplies links, so an unreachable or
// never-acking peer must fail its link cleanly instead of queueing
// frames without bound.
const DefaultMaxOutbox = 1 << 15

// ErrLinkDetached reports an unsequenced send on a detached link. It
// marks the frame as merely dropped — the connection is mid-reconnect —
// as opposed to a write failure on a live connection.
var ErrLinkDetached = errors.New("wire: link detached")

// ErrOutboxOverflow is wrapped by the sticky error a link fails with
// when its unacked outbox exceeds the cap.
var ErrOutboxOverflow = errors.New("wire: link outbox overflow")

// NewLink wraps an established connection. The link counts bytes from
// here on: what the connection carried before (its handshake, or a
// whole earlier run when it is reused) is not this relationship's.
func NewLink(c Conn) *Link {
	l := &Link{}
	if c != nil {
		l.attachLocked(c)
	}
	return l
}

func (l *Link) attachLocked(c Conn) {
	in, out := c.Stats()
	l.pastIn -= in
	l.pastOut -= out
	l.conn = c
}

// Send assigns the next wid, records the frame in the outbox and
// writes it immediately (flushing anything still coalescing first).
func (l *Link) Send(t Type, payload []byte) error {
	return l.sendSeq(t, payload, false, false)
}

// SendData assigns the next wid, records the frame in the outbox and
// queues it in the connection's write buffer, to share a flush with
// the rest of the burst. pooled marks a payload owned by the frame
// pool, recycled when the peer acks it.
func (l *Link) SendData(t Type, payload []byte, pooled bool) error {
	return l.sendSeq(t, payload, pooled, true)
}

func (l *Link) sendSeq(t Type, payload []byte, pooled, buffered bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	max := l.max
	if max <= 0 {
		max = DefaultMaxOutbox
	}
	if len(l.outbox) >= max {
		l.failed = fmt.Errorf("%w: %d unacked frames (peer detached or not acking)", ErrOutboxOverflow, len(l.outbox))
		return l.failed
	}
	l.next++
	f := Frame{Type: t, Wid: l.next, Payload: payload}
	l.outbox = append(l.outbox, outFrame{f: f, pooled: pooled})
	if l.conn == nil {
		// Detached mid-reconnect: the frame waits in the outbox and
		// replays on reattach.
		return nil
	}
	if buffered {
		l.dirty = true
		return l.conn.WriteFrameBuffered(f)
	}
	l.dirty = false
	return l.conn.WriteFrame(f)
}

// Flush drives buffered frames onto the wire, led by one cumulative
// ack when sequenced frames arrived since the last one. A no-op when
// nothing is owed or buffered; while detached the ack is dropped (the
// reconnect handshake re-exchanges watermarks, so nothing is lost).
func (l *Link) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ack := l.owed > 0
	l.owed = 0
	if l.conn == nil || !ack && !l.dirty {
		return nil
	}
	l.dirty = false
	if ack {
		if err := l.conn.WriteFrameBuffered(Frame{Type: TAck, Payload: encU64(l.rcvd)}); err != nil {
			return err
		}
	}
	return l.conn.Flush()
}

// SendRaw writes an unsequenced frame immediately. While detached it
// reports ErrLinkDetached (unsequenced frames are not replayed).
func (l *Link) SendRaw(f Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil {
		return ErrLinkDetached
	}
	l.dirty = false
	return l.conn.WriteFrame(f)
}

// Receive runs the receive side of the link for one inbound frame and
// reports whether the caller should handle it, and how many sequenced
// frames now wait on this side's next ack. An ack prunes the outbox and
// is consumed; an unsequenced frame always passes; a sequenced frame
// already seen (a replay overlap after a reconnect) is absorbed; and
// every sequenced frame, fresh or replayed, puts an ack on the next
// Flush.
func (l *Link) Receive(f Frame) (handle bool, unacked int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case f.Type == TAck:
		if wid, err := decU64(f.Payload); err == nil {
			l.pruneLocked(wid)
		}
		return false, l.owed
	case f.Wid == 0:
		return true, l.owed
	}
	l.owed++
	if f.Wid <= l.rcvd {
		return false, l.owed
	}
	l.rcvd = f.Wid
	return true, l.owed
}

// Rcvd returns the cumulative received watermark (the ack payload).
func (l *Link) Rcvd() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rcvd
}

// pruneLocked drops the outbox up to the peer's cumulative watermark.
// An outbox acked whole rewinds to the start of its array, so a link
// that is acked as fast as it sends appends into room it already has.
func (l *Link) pruneLocked(wid uint64) {
	i := 0
	for i < len(l.outbox) && l.outbox[i].f.Wid <= wid {
		if l.outbox[i].pooled {
			putBuf(l.outbox[i].f.Payload)
		}
		l.outbox[i] = outFrame{}
		i++
	}
	if i == len(l.outbox) {
		l.outbox = l.outbox[:0]
	} else {
		l.outbox = l.outbox[i:]
	}
}

// Detach drops the current connection (after an error), accumulating
// its byte counters. Sequenced sends keep queueing while detached.
func (l *Link) Detach() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.detachLocked()
}

// DetachIf detaches only if c is still the current connection: a
// reader noticing an error on an old connection must not tear down
// the replacement that already took its place.
func (l *Link) DetachIf(c Conn) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == c {
		l.detachLocked()
	}
}

func (l *Link) detachLocked() {
	if c := l.releaseLocked(); c != nil {
		c.Close()
	}
}

// Release gives up the current connection without closing it, for a
// conversation that ended cleanly on both sides: the connection can
// carry another. Returns nil while detached.
func (l *Link) Release() Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.releaseLocked()
}

func (l *Link) releaseLocked() Conn {
	c := l.conn
	if c != nil {
		in, out := c.Stats()
		l.pastIn += in
		l.pastOut += out
		l.conn = nil
		l.dirty = false
	}
	return c
}

// Reattach installs a fresh connection after a reconnect handshake:
// frames the peer confirmed (wid <= peerRcvd) are pruned, the rest of
// the outbox replays in order (coalesced into one flush).
func (l *Link) Reattach(c Conn, peerRcvd uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	l.detachLocked()
	l.attachLocked(c)
	l.pruneLocked(peerRcvd)
	for _, of := range l.outbox {
		if err := c.WriteFrameBuffered(of.f); err != nil {
			return err
		}
	}
	return c.Flush()
}

// Conn returns the current connection (nil while detached).
func (l *Link) Conn() Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn
}

// Stats returns total bytes in/out across every connection this link
// has used.
func (l *Link) Stats() (in, out int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	in, out = l.pastIn, l.pastOut
	if l.conn != nil {
		ci, co := l.conn.Stats()
		in += ci
		out += co
	}
	return in, out
}

// Close detaches and drops the outbox, returning pooled payloads.
// Safe on a nil link (a peer that never finished its first dial).
func (l *Link) Close() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.detachLocked()
	for i := range l.outbox {
		if l.outbox[i].pooled {
			putBuf(l.outbox[i].f.Payload)
		}
	}
	l.outbox = nil
}

// ---------------------------------------------------------------------
// Frame payload pool. Encode-side only: a sender encodes a message
// into a pooled buffer, hands it to SendData(..., pooled=true), and
// the link returns it to the pool once the peer's cumulative ack
// proves it will never be replayed. Transports copy at write time
// (bufio for TCP, an explicit copy for inproc), so the buffer's only
// other reference dies with the WriteFrame call.

var payloadPool sync.Pool

// poolBufCap bounds what re-enters the pool; pathological outliers
// (a giant vector value) are left for the garbage collector.
const poolBufCap = 64 << 10

func getBuf() []byte {
	if v := payloadPool.Get(); v != nil {
		return v.([]byte)[:0]
	}
	return make([]byte, 0, 512)
}

func putBuf(b []byte) {
	if cap(b) == 0 || cap(b) > poolBufCap {
		return
	}
	payloadPool.Put(b[:0]) //nolint:staticcheck // slice header boxing is far cheaper than the encode it saves
}
