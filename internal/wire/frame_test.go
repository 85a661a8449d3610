package wire

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
)

// loopConn is a net.Conn whose reads return what its writes wrote.
type loopConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *loopConn) Write(p []byte) (int, error) { return c.buf.Write(p) }
func (c *loopConn) Read(p []byte) (int, error)  { return c.buf.Read(p) }

// TestTCPConnFrameHeaderAllocatesNothing: a connection writes and reads
// each frame header through arrays of its own, so a frame without a
// payload crosses a tcpConn, there and back, without a heap allocation.
func TestTCPConnFrameHeaderAllocatesNothing(t *testing.T) {
	c := newTCPConn(&loopConn{})
	allocs := testing.AllocsPerRun(1000, func() {
		if err := c.WriteFrame(Frame{Type: THeartbeat, Wid: 9}); err != nil {
			t.Fatal(err)
		}
		f, err := c.ReadFrame()
		if err != nil || f.Type != THeartbeat || f.Wid != 9 {
			t.Fatalf("read back %+v, %v", f, err)
		}
	})
	if allocs != 0 {
		t.Errorf("an empty-payload frame round trip through a tcpConn allocates %.1f times, want 0", allocs)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: THello, Payload: []byte(`{"proto":1}`)},
		{Type: TData, Wid: 42, Payload: []byte{0, 1, 2, 3, 255}},
		{Type: TIdle, Wid: 7},
		{Type: THeartbeat, Payload: encU64(123456)},
	}
	var buf bytes.Buffer
	total := 0
	for _, f := range frames {
		n, err := WriteFrame(&buf, f)
		if err != nil {
			t.Fatalf("write %s: %v", f.Type, err)
		}
		if n != HeaderLen+len(f.Payload) {
			t.Errorf("write %s: %d bytes, want %d", f.Type, n, HeaderLen+len(f.Payload))
		}
		total += n
	}
	if buf.Len() != total {
		t.Fatalf("buffer holds %d bytes, wrote %d", buf.Len(), total)
	}
	for _, want := range frames {
		got, n, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %s: %v", want.Type, err)
		}
		if n != HeaderLen+len(want.Payload) {
			t.Errorf("read %s: %d bytes, want %d", want.Type, n, HeaderLen+len(want.Payload))
		}
		if got.Type != want.Type || got.Wid != want.Wid || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("round trip: got %+v want %+v", got, want)
		}
	}
}

// encodeFrame renders a frame to bytes for corruption tests.
func encodeFrame(t *testing.T, f Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFrameRejectsCorruption(t *testing.T) {
	good := encodeFrame(t, Frame{Type: TData, Wid: 9, Payload: []byte("payload-bytes")})

	cases := []struct {
		name    string
		mutate  func([]byte)
		wantErr string
	}{
		{"flipped payload bit", func(b []byte) { b[HeaderLen] ^= 0x01 }, "checksum"},
		{"bad magic", func(b []byte) { b[0] = 0x00 }, "bad magic"},
		{"future version", func(b []byte) { b[2] = ProtoVersion + 1 }, "protocol version"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := append([]byte(nil), good...)
			c.mutate(b)
			_, _, err := ReadFrame(bytes.NewReader(b))
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, c.wantErr)
			}
		})
	}

	t.Run("oversize length", func(t *testing.T) {
		b := append([]byte(nil), good...)
		binary.BigEndian.PutUint32(b[12:], MaxPayload+1)
		_, _, err := ReadFrame(bytes.NewReader(b))
		if err == nil || !strings.Contains(err.Error(), "payload") {
			t.Fatalf("got %v, want oversize payload error", err)
		}
	})

	t.Run("truncated stream", func(t *testing.T) {
		_, _, err := ReadFrame(bytes.NewReader(good[:len(good)-3]))
		if err == nil {
			t.Fatal("truncated frame read succeeded")
		}
	})
}
