package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// Conn is one framed, bidirectional peer connection. WriteFrame and
// ReadFrame are each safe for one concurrent caller (the usual pattern:
// one reader goroutine, writers serialized by a Link's mutex).
type Conn interface {
	WriteFrame(f Frame) error
	// WriteFrameBuffered queues a frame in the connection's write buffer
	// without forcing it onto the wire. A later Flush — or any immediate
	// WriteFrame on the same connection — drives it out in order. This is
	// the frame-coalescing primitive: many small data frames share one
	// write/flush instead of paying one each.
	WriteFrameBuffered(f Frame) error
	// Flush forces previously buffered frames onto the wire.
	Flush() error
	ReadFrame() (Frame, error)
	// Stats returns bytes read and written on this connection.
	Stats() (in, out int64)
	Close() error
}

// Listener accepts peer connections.
type Listener interface {
	Accept() (Conn, error)
	// Addr is the bound address (with the real port when the requested
	// one was 0).
	Addr() string
	Close() error
}

// Transport creates listeners and connections: TCP() for real
// multi-process runs, Inproc() for deterministic in-memory runs that
// exercise the identical protocol machinery.
type Transport interface {
	Listen(addr string) (Listener, error)
	Dial(ctx context.Context, addr string) (Conn, error)
}

// ---------------------------------------------------------------------
// TCP transport: length-prefixed frames over loopback or a real
// network.

type tcpTransport struct{}

// TCP returns the TCP transport.
func TCP() Transport { return tcpTransport{} }

func (tcpTransport) Listen(addr string) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return tcpListener{l}, nil
}

func (tcpTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Frames are already batched writes; don't let Nagle delay the
		// small control frames behind them.
		tc.SetNoDelay(true)
	}
	return newTCPConn(c), nil
}

type tcpListener struct{ l net.Listener }

func (t tcpListener) Accept() (Conn, error) {
	c, err := t.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newTCPConn(c), nil
}

func (t tcpListener) Addr() string { return t.l.Addr().String() }
func (t tcpListener) Close() error { return t.l.Close() }

type tcpConn struct {
	c    net.Conn
	br   *bufio.Reader
	rhdr [HeaderLen]byte // the frame header being read: one reader at a time

	wmu  sync.Mutex
	bw   *bufio.Writer
	whdr [HeaderLen]byte // the frame header being written, under wmu

	smu     sync.Mutex
	in, out int64
}

// tcpBufSize sizes the per-connection read and write buffers: large
// enough that a coalesced burst of small data frames — everything a
// slot sends a peer before its session flushes — becomes one syscall.
// A burst larger than the buffer writes through early.
const tcpBufSize = 64 << 10

func newTCPConn(c net.Conn) *tcpConn {
	return &tcpConn{c: c, br: bufio.NewReaderSize(c, tcpBufSize), bw: bufio.NewWriterSize(c, tcpBufSize)}
}

func (t *tcpConn) WriteFrame(f Frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	// Sharing bw with WriteFrameBuffered means an immediate write also
	// flushes anything still coalescing — order is preserved.
	n, err := writeFrame(t.bw, &t.whdr, f)
	if err == nil {
		err = t.bw.Flush()
	}
	t.smu.Lock()
	t.out += int64(n)
	t.smu.Unlock()
	return err
}

func (t *tcpConn) WriteFrameBuffered(f Frame) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	n, err := writeFrame(t.bw, &t.whdr, f)
	t.smu.Lock()
	t.out += int64(n)
	t.smu.Unlock()
	return err
}

func (t *tcpConn) Flush() error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return t.bw.Flush()
}

func (t *tcpConn) ReadFrame() (Frame, error) {
	f, n, err := readFrame(t.br, &t.rhdr)
	t.smu.Lock()
	t.in += int64(n)
	t.smu.Unlock()
	return f, err
}

func (t *tcpConn) Stats() (int64, int64) {
	t.smu.Lock()
	defer t.smu.Unlock()
	return t.in, t.out
}

func (t *tcpConn) Close() error { return t.c.Close() }

// ---------------------------------------------------------------------
// In-process transport: the same protocol over in-memory queues. One
// Inproc() value is an isolated namespace of addresses; listeners and
// dialers must share it.

// Inproc returns a new in-memory transport namespace.
func Inproc() Transport {
	return &inprocTransport{listeners: map[string]*inprocListener{}}
}

type inprocTransport struct {
	mu        sync.Mutex
	listeners map[string]*inprocListener
}

func (t *inprocTransport) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, taken := t.listeners[addr]; taken {
		return nil, fmt.Errorf("wire: inproc address %q already in use", addr)
	}
	l := &inprocListener{t: t, addr: addr, dials: make(chan *inprocConn), closed: make(chan struct{})}
	t.listeners[addr] = l
	return l, nil
}

func (t *inprocTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	t.mu.Lock()
	l := t.listeners[addr]
	t.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("wire: inproc dial %q: connection refused", addr)
	}
	a, b := inprocPair()
	select {
	case l.dials <- b:
		return a, nil
	case <-l.closed:
		return nil, fmt.Errorf("wire: inproc dial %q: connection refused", addr)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

type inprocListener struct {
	t      *inprocTransport
	addr   string
	dials  chan *inprocConn
	closed chan struct{}
	once   sync.Once
}

func (l *inprocListener) Accept() (Conn, error) {
	select {
	case c := <-l.dials:
		return c, nil
	case <-l.closed:
		return nil, fmt.Errorf("wire: inproc listener %q closed", l.addr)
	}
}

func (l *inprocListener) Addr() string { return l.addr }

func (l *inprocListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.t.mu.Lock()
		delete(l.t.listeners, l.addr)
		l.t.mu.Unlock()
	})
	return nil
}

// inprocConn is one side of an in-memory duplex frame queue.
type inprocConn struct {
	send   chan Frame
	recv   chan Frame
	closed chan struct{} // this side closed
	peer   chan struct{} // other side closed
	once   sync.Once

	pmu     sync.Mutex
	pending []Frame // buffered, not yet delivered to the peer queue

	smu     sync.Mutex
	in, out int64
}

func inprocPair() (*inprocConn, *inprocConn) {
	ab := make(chan Frame, 256)
	ba := make(chan Frame, 256)
	ca := make(chan struct{})
	cb := make(chan struct{})
	a := &inprocConn{send: ab, recv: ba, closed: ca, peer: cb}
	b := &inprocConn{send: ba, recv: ab, closed: cb, peer: ca}
	return a, b
}

// frameBytes is the encoded size a frame would occupy on a byte stream,
// so the in-process transport reports comparable wire accounting.
func frameBytes(f Frame) int64 { return int64(HeaderLen + len(f.Payload)) }

func (c *inprocConn) WriteFrame(f Frame) error {
	// Buffered frames must hit the peer queue before this one.
	if err := c.Flush(); err != nil {
		return err
	}
	// Copy the payload: the in-memory path must not alias sender
	// buffers any more than a real wire would.
	if f.Payload != nil {
		f.Payload = append([]byte(nil), f.Payload...)
	}
	return c.deliver(f)
}

func (c *inprocConn) WriteFrameBuffered(f Frame) error {
	// Copy at buffer time: the sender may recycle the payload as soon as
	// the call returns, exactly as a byte stream would have consumed it.
	if f.Payload != nil {
		f.Payload = append([]byte(nil), f.Payload...)
	}
	select {
	case <-c.closed:
		return fmt.Errorf("wire: inproc connection closed")
	case <-c.peer:
		return fmt.Errorf("wire: inproc peer closed")
	default:
	}
	c.pmu.Lock()
	c.pending = append(c.pending, f)
	c.pmu.Unlock()
	return nil
}

func (c *inprocConn) Flush() error {
	c.pmu.Lock()
	pend := c.pending
	c.pending = nil
	c.pmu.Unlock()
	for _, f := range pend {
		if err := c.deliver(f); err != nil {
			// The connection is broken; the remainder is lost with it.
			// Reliable frames live in a Link outbox and replay elsewhere.
			return err
		}
	}
	return nil
}

func (c *inprocConn) deliver(f Frame) error {
	select {
	case c.send <- f:
		c.smu.Lock()
		c.out += frameBytes(f)
		c.smu.Unlock()
		return nil
	case <-c.closed:
		return fmt.Errorf("wire: inproc connection closed")
	case <-c.peer:
		return fmt.Errorf("wire: inproc peer closed")
	}
}

func (c *inprocConn) ReadFrame() (Frame, error) {
	select {
	case f := <-c.recv:
		c.smu.Lock()
		c.in += frameBytes(f)
		c.smu.Unlock()
		return f, nil
	case <-c.closed:
		return Frame{}, fmt.Errorf("wire: inproc connection closed")
	case <-c.peer:
		// Drain frames the peer queued before closing.
		select {
		case f := <-c.recv:
			c.smu.Lock()
			c.in += frameBytes(f)
			c.smu.Unlock()
			return f, nil
		default:
			return Frame{}, fmt.Errorf("wire: inproc peer closed")
		}
	}
}

func (c *inprocConn) Stats() (int64, int64) {
	c.smu.Lock()
	defer c.smu.Unlock()
	return c.in, c.out
}

func (c *inprocConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// dialBackoff dials addr with capped exponential backoff until ctx
// expires: the same discipline the runner's reliable in-process
// transport applies to retransmissions, applied to connections.
func dialBackoff(ctx context.Context, t Transport, addr string, base, cap time.Duration) (Conn, error) {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if cap <= 0 {
		cap = time.Second
	}
	delay := base
	for {
		c, err := t.Dial(ctx, addr)
		if err == nil {
			return c, nil
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wire: dialing %s: %w (last error: %v)", addr, ctx.Err(), err)
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, fmt.Errorf("wire: dialing %s: %w (last error: %v)", addr, ctx.Err(), err)
		}
		if delay *= 2; delay > cap {
			delay = cap
		}
	}
}
