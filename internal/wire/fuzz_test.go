package wire

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/exec"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Fuzz targets for the wire decoders: whatever bytes arrive off a
// socket, decoding must return an error — never panic, and never
// allocate unboundedly from a corrupted length or count field. Corpus
// seeds are the valid encodings the rest of the suite relies on.

// fuzzEnv is a representative environment covering every value tag.
func fuzzEnv() pits.Env {
	return pits.Env{
		"x":    pits.Num(3.5),
		"vec":  pits.Vec{1, 2, 3},
		"flag": pits.BoolV(true),
		"name": pits.StrV("gauss"),
	}
}

func FuzzReadFrame(f *testing.F) {
	// Seed with valid frames of each flavour: empty payload, data
	// payload, sequenced, and a handshake-style JSON payload.
	for _, fr := range []Frame{
		{Type: THello, Payload: []byte(`{"proto":1}`)},
		{Type: TData, Wid: 7, Payload: []byte("payload")},
		{Type: THeartbeat},
		{Type: TResult, Wid: 42, Payload: bytes.Repeat([]byte{0xAB}, 600)},
	} {
		var buf bytes.Buffer
		if _, err := WriteFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// Truncated and oversized corruptions of a valid frame.
	var buf bytes.Buffer
	WriteFrame(&buf, Frame{Type: TData, Payload: []byte("hello")})
	valid := buf.Bytes()
	f.Add(valid[:HeaderLen-3])
	huge := append([]byte(nil), valid...)
	huge[12], huge[13], huge[14], huge[15] = 0xFF, 0xFF, 0xFF, 0xFF
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("ReadFrame consumed %d of %d bytes", n, len(data))
		}
		// A frame that decoded must re-encode to the same bytes.
		var out bytes.Buffer
		if _, err := WriteFrame(&out, fr); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:n]) {
			t.Fatalf("frame did not round-trip:\n in  %x\n out %x", data[:n], out.Bytes())
		}
	})
}

func FuzzDecodeValue(f *testing.F) {
	for _, v := range []pits.Value{pits.Num(1.25), pits.Vec{4, 5}, pits.BoolV(false), pits.StrV("s")} {
		b, err := AppendValue(nil, v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{tagVec, 0xFF, 0xFF, 0xFF, 0xFF}) // huge claimed vector
	f.Fuzz(func(t *testing.T, data []byte) {
		v, rest, err := DecodeValue(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("decoder produced more rest than input")
		}
		// Decoded values re-encode and decode to an equal value.
		b, err := AppendValue(nil, v)
		if err != nil {
			t.Fatalf("re-encoding decoded value %v: %v", v, err)
		}
		v2, _, err := DecodeValue(b)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if v.String() != v2.String() {
			t.Fatalf("value changed across round trip: %v != %v", v, v2)
		}
	})
}

func FuzzDecodeEnv(f *testing.F) {
	b, err := EncodeEnv(fuzzEnv())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	empty, _ := EncodeEnv(pits.Env{})
	f.Add(empty)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00}) // huge claimed entry count
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeEnv(data)
		if err != nil {
			return
		}
		b, err := EncodeEnv(e)
		if err != nil {
			t.Fatalf("re-encoding decoded env: %v", err)
		}
		e2, err := DecodeEnv(b)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if len(e2) != len(e) {
			t.Fatalf("env changed size across round trip: %d != %d", len(e2), len(e))
		}
	})
}

func FuzzDecodeMsg(f *testing.F) {
	for _, v := range []pits.Value{pits.Num(9), pits.Vec{1}, pits.StrV("datum")} {
		b, err := EncodeMsg(exec.RemoteMsg{
			From: "a", To: "b", Var: "v", FromPE: 1, ToPE: 2,
			Seq: 3, Epoch: 1, At: 99, Sum: 7, Val: v,
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMsg(data)
		if err != nil {
			return
		}
		b, err := EncodeMsg(m)
		if err != nil {
			t.Fatalf("re-encoding decoded message: %v", err)
		}
		m2, err := DecodeMsg(b)
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		m.Val, m2.Val = nil, nil // values compared via their encoding above
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("message changed across round trip:\n%+v\n%+v", m, m2)
		}
	})
}

func FuzzDecodeSchedule(f *testing.F) {
	flat, _ := distDesign(f, 2, 2)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(f, "full:2"))
	if err != nil {
		f.Fatal(err)
	}
	b, err := EncodeSchedule(sc)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Add(b[:len(b)/2])
	for _, bad := range outOfRangeSchedules(f) {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSchedule(data)
		if err != nil {
			return
		}
		// A schedule that decoded is valid, so it re-encodes and decodes.
		b, err := EncodeSchedule(s)
		if err != nil {
			t.Fatalf("re-encoding a decoded schedule: %v", err)
		}
		if _, err := DecodeSchedule(b); err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
	})
}

func FuzzDecodeEvents(f *testing.F) {
	b := EncodeEvents([]trace.Event{
		{Kind: trace.TaskStart, At: 10, Task: "t1", PE: 2},
		{Kind: trace.MsgSend, At: 26, Task: "t1", PE: 2, Var: "x", Peer: 5, Seq: 7, Bytes: 64},
		{Kind: trace.MsgRecv, At: 31, Task: "t2", PE: 5, Var: "x", Peer: 2, Seq: 7, Dup: true, Note: "late"},
	})
	f.Add(b)
	f.Add(EncodeEvents(nil))
	f.Add(b[:len(b)-3])
	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeEvents(data)
		if err != nil {
			return
		}
		evs2, err := DecodeEvents(EncodeEvents(evs))
		if err != nil {
			t.Fatalf("re-decoding: %v", err)
		}
		if len(evs) != 0 && !reflect.DeepEqual(evs, evs2) {
			t.Fatalf("events changed across round trip:\n%+v\n%+v", evs, evs2)
		}
	})
}
