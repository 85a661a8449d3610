package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLinkReplayAfterReattach(t *testing.T) {
	a, b := inprocPair()
	l := NewLink(a)
	for _, p := range []string{"one", "two", "three"} {
		if err := l.Send(TData, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	// The peer saw all three but only acked the second.
	for i := 0; i < 3; i++ {
		if _, err := b.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	l.Receive(ack(2))

	// The connection dies; a frame sent while detached queues silently.
	l.Detach()
	if err := l.Send(TData, []byte("four")); err != nil {
		t.Fatalf("send while detached: %v", err)
	}
	if err := l.SendRaw(Frame{Type: THeartbeat, Payload: encU64(0)}); err == nil {
		t.Error("unsequenced send while detached did not error")
	}

	// Reattach on a fresh connection: the peer's watermark says it has
	// everything through wid 2, so wids 3 and 4 replay in order.
	c, d := inprocPair()
	if err := l.Reattach(c, 2); err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		wid     uint64
		payload string
	}{{3, "three"}, {4, "four"}} {
		f, err := d.ReadFrame()
		if err != nil {
			t.Fatalf("replay frame %d: %v", i, err)
		}
		if f.Wid != want.wid || !bytes.Equal(f.Payload, []byte(want.payload)) {
			t.Errorf("replay frame %d: wid %d payload %q, want wid %d payload %q",
				i, f.Wid, f.Payload, want.wid, want.payload)
		}
	}
}

// ack is the frame a peer sends to confirm everything through wid.
func ack(wid uint64) Frame { return Frame{Type: TAck, Payload: encU64(wid)} }

// TestLinkReceive pins the receive side the coordinator, the worker
// daemon and the mesh all share: unsequenced frames pass, a replay
// overlap is absorbed but still re-acked, acks are consumed, and
// however many sequenced frames arrive between two flushes, the flush
// carries exactly one cumulative ack — and none when nothing arrived.
// Receive counts the frames the next ack will cover.
func TestLinkReceive(t *testing.T) {
	a, b := inprocPair()
	l := NewLink(a)
	recv := func(f Frame) bool {
		handle, _ := l.Receive(f)
		return handle
	}
	acks := func() (n int, last uint64) {
		t.Helper()
		// A heartbeat marks the end of what the flush put on the wire.
		if err := l.SendRaw(Frame{Type: THeartbeat}); err != nil {
			t.Fatal(err)
		}
		for {
			f, err := b.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			if f.Type == THeartbeat {
				return n, last
			}
			if f.Type != TAck {
				t.Fatalf("unexpected %s frame", f.Type)
			}
			n++
			if last, err = decU64(f.Payload); err != nil {
				t.Fatal(err)
			}
		}
	}

	if !recv(Frame{Type: THeartbeat}) {
		t.Error("unsequenced frame not delivered")
	}
	l.Flush()
	if n, _ := acks(); n != 0 {
		t.Errorf("%d acks after an unsequenced frame, want none", n)
	}
	for wid := uint64(1); wid <= 3; wid++ {
		if handle, unacked := l.Receive(Frame{Type: TData, Wid: wid}); !handle || unacked != int(wid) {
			t.Errorf("fresh wid %d: handle %v, %d unacked; want true, %d", wid, handle, unacked, wid)
		}
	}
	l.Flush()
	if n, last := acks(); n != 1 || last != 3 {
		t.Errorf("%d acks (last %d) after three frames and one flush, want one ack of 3", n, last)
	}
	l.Flush()
	if n, _ := acks(); n != 0 {
		t.Errorf("%d acks from a flush with nothing new, want none", n)
	}

	// Replay overlap: a reconnecting peer resends 2 and 3, then 4.
	if recv(Frame{Type: TData, Wid: 2}) || recv(Frame{Type: TData, Wid: 3}) {
		t.Error("replayed wid delivered twice")
	}
	l.Flush()
	if n, last := acks(); n != 1 || last != 3 {
		t.Errorf("%d acks (last %d) after a pure replay, want one re-ack of 3", n, last)
	}
	if recv(Frame{Type: TData, Wid: 3}) || !recv(Frame{Type: TData, Wid: 4}) {
		t.Error("replay tail: wid 3 must be absorbed and wid 4 delivered")
	}
	if l.Rcvd() != 4 {
		t.Errorf("watermark %d, want 4", l.Rcvd())
	}

	// Acks are the link's own business: consumed, and they prune.
	for i := 0; i < 3; i++ {
		if err := l.Send(TData, nil); err != nil {
			t.Fatal(err)
		}
	}
	if recv(ack(2)) || recv(Frame{Type: TAck, Payload: []byte{1}}) {
		t.Error("ack frame handed to the caller")
	}
	if len(l.outbox) != 1 || l.outbox[0].f.Wid != 3 {
		t.Errorf("outbox after ack of 2: %d frames, want only wid 3", len(l.outbox))
	}
}

// TestLinkOutboxCap: a peer that never acks cannot grow the outbox
// without bound. Hitting the cap fails the link cleanly and stays
// failed — including across a reattach, so the coordinator eventually
// declares the peer lost instead of hoarding frames forever.
func TestLinkOutboxCap(t *testing.T) {
	l := NewLink(nil) // detached: frames queue without a reader
	l.max = 4
	for i := 0; i < 4; i++ {
		if err := l.Send(TData, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d under the cap: %v", i, err)
		}
	}
	err := l.Send(TData, []byte{4})
	if !errors.Is(err, ErrOutboxOverflow) {
		t.Fatalf("send over the cap: got %v, want ErrOutboxOverflow", err)
	}
	if err := l.Send(TData, []byte{5}); !errors.Is(err, ErrOutboxOverflow) {
		t.Errorf("failure is not sticky: second send got %v", err)
	}
	a, _ := inprocPair()
	if err := l.Reattach(a, 0); !errors.Is(err, ErrOutboxOverflow) {
		t.Errorf("reattach on a failed link got %v, want ErrOutboxOverflow", err)
	}

	// Acks prune the outbox, so a healthy peer never trips the cap.
	l2 := NewLink(nil)
	l2.max = 4
	for i := 0; i < 32; i++ {
		if err := l2.Send(TData, []byte{byte(i)}); err != nil {
			t.Fatalf("acked send %d: %v", i, err)
		}
		l2.Receive(ack(uint64(i + 1)))
	}
}

// TestLinkConcurrentSendReattach hammers Send against Detach/Reattach
// replay cycles; the race detector pins the locking, and every wid must
// come out exactly once per connection epoch (replays excepted).
func TestLinkConcurrentSendReattach(t *testing.T) {
	a, b := inprocPair()
	l := NewLink(a)
	// The overflow cap is TestLinkOutboxCap's subject; here unthrottled
	// senders can outrun the 50µs acker on a loaded machine, and the
	// test must die by deadline, not by a spurious overflow.
	l.max = 1 << 22
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Drain whatever connection currently backs the link so writes
	// never block; remember the highest wid actually read, which is the
	// watermark an honest peer would hand back in the reconnect
	// handshake. Acking happens on a separate goroutine, like a real
	// peer's batched cumulative acks: the drain must never wait on the
	// link lock, or it stops emptying the very queue a locked replay is
	// trying to fill.
	var seen atomic.Uint64
	drain := func(c *inprocConn) {
		defer wg.Done()
		for {
			f, err := c.ReadFrame()
			if err != nil {
				return // Detach closed this connection
			}
			for {
				cur := seen.Load()
				if f.Wid <= cur || seen.CompareAndSwap(cur, f.Wid) {
					break
				}
			}
		}
	}
	wg.Add(1)
	go drain(b)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			l.Receive(ack(seen.Load()))
			time.Sleep(50 * time.Microsecond)
		}
	}()

	const senders = 4
	var sent atomic.Int64
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := l.Send(TData, []byte(fmt.Sprintf("s%d-%d", s, i))); err != nil {
					t.Errorf("sender %d: %v", s, err)
					return
				}
				sent.Add(1)
			}
		}(s)
	}

	for cycle := 0; cycle < 25; cycle++ {
		// Let the senders race the attached connection for a moment
		// before tearing it down again.
		for target := sent.Load() + 10; sent.Load() < target; {
			time.Sleep(100 * time.Microsecond)
		}
		l.Detach()
		c, d := inprocPair()
		wg.Add(1)
		go drain(d)
		if err := l.Reattach(c, seen.Load()); err != nil {
			t.Fatalf("reattach cycle %d: %v", cycle, err)
		}
	}
	stop.Store(true)
	l.Close()
	wg.Wait()
	if sent.Load() == 0 {
		t.Error("senders made no progress across reattach cycles")
	}
}

func TestInprocTransportConnectivity(t *testing.T) {
	tr := Inproc()
	lis, err := tr.Listen("w0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("w0"); err == nil {
		t.Error("double listen on one inproc address succeeded")
	}
	done := make(chan error, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			done <- err
			return
		}
		f, err := c.ReadFrame()
		if err != nil {
			done <- err
			return
		}
		done <- c.WriteFrame(f)
	}()
	c, err := tr.Dial(context.Background(), "w0")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFrame(Frame{Type: TPing, Payload: []byte("echo")}); err != nil {
		t.Fatal(err)
	}
	f, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != TPing || string(f.Payload) != "echo" {
		t.Errorf("echo came back as %s %q", f.Type, f.Payload)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	lis.Close()
	if _, err := tr.Dial(context.Background(), "w0"); err == nil {
		t.Error("dial after listener close succeeded")
	}
}
