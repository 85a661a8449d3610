// Package wire is the distributed execution backend's message plane: a
// length-prefixed binary framing with checksums and version handshake,
// a Transport abstraction with in-process and TCP implementations, a
// reliable per-peer link with reconnect and replay, and on top of those
// the worker daemon and coordinator that run one Banger schedule across
// several OS processes.
//
// The layering mirrors the single-process runner: exec.Session is the
// machinery of the processors one process hosts, and wire carries what
// used to travel over in-process channels — scheduled messages, idle
// and crash notifications, and the pause/replan/resume recovery
// protocol — between processes instead.
package wire

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Protocol constants.
const (
	// Magic opens every frame; a connection speaking anything else is
	// rejected at the first read.
	Magic uint16 = 0xBA46
	// ProtoVersion is the wire protocol version, checked in the
	// Hello/Welcome handshake and carried in every frame header.
	ProtoVersion byte = 3
	// HeaderLen is the fixed frame header size in bytes.
	HeaderLen = 24
	// MaxPayload bounds a frame payload (a corrupted length prefix must
	// not make a reader allocate gigabytes).
	MaxPayload = 16 << 20
)

// Type identifies a frame's meaning.
type Type byte

// Frame types. Hello/Welcome handshake a connection; Start ships the
// run bundle; Data carries one scheduled message; Ack carries the
// receiver's cumulative sequenced-frame watermark; Heartbeat is an
// empty liveness beat; Idle/Crash are worker reports — Idle carries a
// session's exec.Report (JSON), sent when it falls quiet and to answer a
// Probe, which the coordinator sends before it calls a deadlock;
// Pause/Parked/Resume drive the distributed recovery barrier;
// Finish/Result/Bye end a run; Error aborts it; Ping/Pong are
// latency-calibration echoes.
const (
	THello Type = iota + 1
	TWelcome
	TStart
	TData
	TAck
	THeartbeat
	TIdle
	TCrash
	TPause
	TParked
	TResume
	TFinish
	TResult
	TError
	TPing
	TPong
	TBye
	// TJoin and TDrain are fleet-elasticity controls: Join announces a
	// worker that wants to enter a run in flight (on the coordinator's
	// control listener), Drain asks the coordinator to gracefully
	// evacuate a worker. Workers exchange TBye on mesh links to tear
	// them down immediately on a planned departure.
	TJoin
	TDrain
	TProbe
)

var typeNames = [...]string{THello: "hello", TWelcome: "welcome", TStart: "start", TData: "data",
	TAck: "ack", THeartbeat: "heartbeat", TIdle: "idle", TCrash: "crash", TPause: "pause",
	TParked: "parked", TResume: "resume", TFinish: "finish", TResult: "result", TError: "error",
	TPing: "ping", TPong: "pong", TBye: "bye", TJoin: "join", TDrain: "drain", TProbe: "probe"}

// String names the frame type.
func (t Type) String() string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", byte(t))
}

// Frame is one protocol message. Wid is the reliable-delivery sequence
// number for frames that must survive a reconnect (0 = unsequenced:
// handshake, acks, heartbeats and echoes).
//
// Frame layout (all integers big-endian):
//
//	offset size field
//	0      2    magic (0xBA46)
//	2      1    protocol version
//	3      1    frame type
//	4      8    wid (reliable sequence number, 0 = unsequenced)
//	12     4    payload length
//	16     8    fnv64a checksum of the payload
//	24     n    payload
type Frame struct {
	Type    Type
	Wid     uint64
	Payload []byte
}

// WriteFrame encodes and writes one frame. It returns the number of
// bytes written (for wire accounting) and the first error.
func WriteFrame(w io.Writer, f Frame) (int, error) {
	var hdr [HeaderLen]byte
	return writeFrame(w, &hdr, f)
}

// writeFrame is WriteFrame with the header assembled in hdr: a
// connection passes its own, so no header escapes to the heap.
func writeFrame(w io.Writer, hdr *[HeaderLen]byte, f Frame) (int, error) {
	if len(f.Payload) > MaxPayload {
		return 0, fmt.Errorf("wire: payload of %d bytes exceeds limit %d", len(f.Payload), MaxPayload)
	}
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = ProtoVersion
	hdr[3] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[4:12], f.Wid)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	binary.BigEndian.PutUint64(hdr[16:24], fnv64a(f.Payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if len(f.Payload) > 0 {
		if _, err := w.Write(f.Payload); err != nil {
			return HeaderLen, err
		}
	}
	return HeaderLen + len(f.Payload), nil
}

// ReadFrame reads and verifies one frame. It returns the number of
// bytes consumed and fails on a bad magic, an unknown protocol version,
// an oversized payload or a checksum mismatch.
func ReadFrame(r io.Reader) (Frame, int, error) {
	var hdr [HeaderLen]byte
	return readFrame(r, &hdr)
}

// readFrame is ReadFrame with the header read into hdr (see writeFrame).
func readFrame(r io.Reader, hdr *[HeaderLen]byte) (Frame, int, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, err
	}
	if m := binary.BigEndian.Uint16(hdr[0:2]); m != Magic {
		return Frame{}, HeaderLen, fmt.Errorf("wire: bad magic %#04x (not a banger peer?)", m)
	}
	if v := hdr[2]; v != ProtoVersion {
		return Frame{}, HeaderLen, fmt.Errorf("wire: protocol version %d, this binary speaks %d", v, ProtoVersion)
	}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return Frame{}, HeaderLen, fmt.Errorf("wire: payload length %d exceeds limit %d", n, MaxPayload)
	}
	f := Frame{Type: Type(hdr[3]), Wid: binary.BigEndian.Uint64(hdr[4:12])}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, HeaderLen, err
		}
	}
	if sum := binary.BigEndian.Uint64(hdr[16:24]); sum != fnv64a(f.Payload) {
		return Frame{}, HeaderLen + int(n), fmt.Errorf("wire: %s frame payload checksum mismatch", f.Type)
	}
	return f, HeaderLen + int(n), nil
}

// fnv64a hashes a payload with the same function the runner uses for
// end-to-end message checksums.
func fnv64a(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
