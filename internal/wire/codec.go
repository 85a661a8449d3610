package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Binary codec for PITS values and scheduled messages. JSON is used for
// control payloads (handshakes, recovery plans), but data payloads need
// an exact float representation — NaN and the infinities are legal PITS
// values and JSON cannot carry them — so values travel as raw IEEE-754
// bits.

// Value type tags.
const (
	tagNum byte = iota + 1
	tagVec
	tagBool
	tagStr
)

// AppendValue appends the binary encoding of v.
func AppendValue(b []byte, v pits.Value) ([]byte, error) {
	switch x := v.(type) {
	case pits.Num:
		b = append(b, tagNum)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(float64(x)))
	case pits.Vec:
		b = append(b, tagVec)
		b = binary.BigEndian.AppendUint32(b, uint32(len(x)))
		for _, f := range x {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(f))
		}
	case pits.BoolV:
		b = append(b, tagBool)
		if x {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case pits.StrV:
		b = append(b, tagStr)
		b = appendString(b, string(x))
	default:
		return nil, fmt.Errorf("wire: cannot encode %T value", v)
	}
	return b, nil
}

// DecodeValue decodes one value and returns the remaining bytes.
func DecodeValue(b []byte) (pits.Value, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("wire: truncated value")
	}
	tag, b := b[0], b[1:]
	switch tag {
	case tagNum:
		if len(b) < 8 {
			return nil, nil, fmt.Errorf("wire: truncated number")
		}
		return pits.Num(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagVec:
		if len(b) < 4 {
			return nil, nil, fmt.Errorf("wire: truncated vector length")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if len(b) < 8*n {
			return nil, nil, fmt.Errorf("wire: truncated vector of %d elements", n)
		}
		v := make(pits.Vec, n)
		for i := 0; i < n; i++ {
			v[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
		}
		return v, b[8*n:], nil
	case tagBool:
		if len(b) < 1 {
			return nil, nil, fmt.Errorf("wire: truncated boolean")
		}
		return pits.BoolV(b[0] != 0), b[1:], nil
	case tagStr:
		s, rest, err := decodeString(b)
		if err != nil {
			return nil, nil, err
		}
		return pits.StrV(s), rest, nil
	default:
		return nil, nil, fmt.Errorf("wire: unknown value tag %d", tag)
	}
}

// EncodeEnv encodes an environment with sorted keys (deterministic
// bytes for identical environments).
func EncodeEnv(e pits.Env) ([]byte, error) {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b := binary.BigEndian.AppendUint32(nil, uint32(len(keys)))
	var err error
	for _, k := range keys {
		b = appendString(b, k)
		if b, err = AppendValue(b, e[k]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeEnv decodes an environment.
func DecodeEnv(b []byte) (pits.Env, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: truncated environment")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// The count is untrusted input: cap the allocation hint by what the
	// buffer could possibly hold (every entry needs a 4-byte key length,
	// at least an empty key, and a 1-byte value tag), so a corrupted
	// count cannot demand gigabytes before the first entry fails.
	e := make(pits.Env, min(n, len(b)/5))
	for i := 0; i < n; i++ {
		k, rest, err := decodeString(b)
		if err != nil {
			return nil, err
		}
		v, rest, err := DecodeValue(rest)
		if err != nil {
			return nil, err
		}
		e[k] = v
		b = rest
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after environment", len(b))
	}
	return e, nil
}

// EncodeCheckpoint encodes a drain target's worker-local env
// checkpoint (task -> full output environment) with sorted task keys,
// so identical checkpoints encode to identical bytes.
func EncodeCheckpoint(local map[graph.NodeID]pits.Env) ([]byte, error) {
	tasks := make([]string, 0, len(local))
	for t := range local {
		tasks = append(tasks, string(t))
	}
	sort.Strings(tasks)
	b := binary.BigEndian.AppendUint32(nil, uint32(len(tasks)))
	for _, t := range tasks {
		b = appendString(b, t)
		eb, err := EncodeEnv(local[graph.NodeID(t)])
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint32(b, uint32(len(eb)))
		b = append(b, eb...)
	}
	return b, nil
}

// DecodeCheckpoint decodes an EncodeCheckpoint payload.
func DecodeCheckpoint(b []byte) (map[graph.NodeID]pits.Env, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("wire: truncated checkpoint")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Untrusted count: cap the allocation hint by what the buffer could
	// hold (each entry needs two 4-byte lengths at minimum).
	local := make(map[graph.NodeID]pits.Env, min(n, len(b)/8))
	for i := 0; i < n; i++ {
		t, rest, err := decodeString(b)
		if err != nil {
			return nil, err
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("wire: truncated checkpoint env length")
		}
		en := int(binary.BigEndian.Uint32(rest))
		rest = rest[4:]
		if en > len(rest) {
			return nil, fmt.Errorf("wire: checkpoint env of %d bytes exceeds payload", en)
		}
		env, err := DecodeEnv(rest[:en])
		if err != nil {
			return nil, err
		}
		local[graph.NodeID(t)] = env
		b = rest[en:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after checkpoint", len(b))
	}
	return local, nil
}

// AppendMsg appends the encoding of one scheduled cross-process message
// to b (which may be a recycled buffer, for senders that pool payload
// buffers). The consumer processor sits at a fixed offset so the
// coordinator can route a Data frame without decoding the payload (see
// MsgDest).
func AppendMsg(b []byte, m exec.RemoteMsg) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, uint32(m.ToPE))
	b = binary.BigEndian.AppendUint32(b, uint32(m.FromPE))
	b = binary.BigEndian.AppendUint64(b, m.Seq)
	b = binary.BigEndian.AppendUint64(b, uint64(m.Epoch))
	b = binary.BigEndian.AppendUint64(b, uint64(m.At))
	b = binary.BigEndian.AppendUint64(b, m.Sum)
	b = appendString(b, string(m.From))
	b = appendString(b, string(m.To))
	b = appendString(b, m.Var)
	return AppendValue(b, m.Val)
}

// MsgDest reads the consumer processor from an encoded message without
// decoding the rest.
func MsgDest(b []byte) (int, error) {
	if len(b) < 4 {
		return 0, fmt.Errorf("wire: truncated message")
	}
	return int(binary.BigEndian.Uint32(b)), nil
}

// DecodeMsg decodes one scheduled cross-process message.
func DecodeMsg(b []byte) (exec.RemoteMsg, error) {
	var m exec.RemoteMsg
	if len(b) < 40 {
		return m, fmt.Errorf("wire: truncated message header")
	}
	m.ToPE = int(binary.BigEndian.Uint32(b[0:]))
	m.FromPE = int(binary.BigEndian.Uint32(b[4:]))
	m.Seq = binary.BigEndian.Uint64(b[8:])
	m.Epoch = int64(binary.BigEndian.Uint64(b[16:]))
	m.At = machine.Time(binary.BigEndian.Uint64(b[24:]))
	m.Sum = binary.BigEndian.Uint64(b[32:])
	b = b[40:]
	var s string
	var err error
	if s, b, err = decodeString(b); err != nil {
		return m, err
	}
	m.From = graph.NodeID(s)
	if s, b, err = decodeString(b); err != nil {
		return m, err
	}
	m.To = graph.NodeID(s)
	if m.Var, b, err = decodeString(b); err != nil {
		return m, err
	}
	if m.Val, b, err = DecodeValue(b); err != nil {
		return m, err
	}
	if len(b) != 0 {
		return m, fmt.Errorf("wire: %d trailing bytes after message", len(b))
	}
	return m, nil
}

// ---------------------------------------------------------------------
// Blob envelopes. Start bundles and results pair a small control JSON
// document with bulk binary blobs (encoded schedule, environments,
// trace events). Embedding those blobs in the JSON costs a base64
// round trip plus a byte-by-byte validity scan of the largest part of
// the payload; the envelope carries them out of band instead. A note
// with no blobs travels as plain JSON: a JSON document can never begin
// with 0x00, so the magic byte tells the two apart at one entry point.

const blobEnvelopeMagic = 0x00

// encBlobEnvelope frames a JSON document and its out-of-band blobs.
func encBlobEnvelope(js []byte, blobs ...[]byte) []byte {
	if len(blobs) == 0 {
		return js
	}
	return openEnvelope(js, len(blobs), blobs...)
}

// encEventsEnvelope is encBlobEnvelope(js, blob, <evs encoded against
// ix>) with the events encoded straight into the envelope, not copied in.
func encEventsEnvelope(js, blob []byte, evs []trace.Event, ix NameIndex) []byte {
	return appendEvents(openEnvelope(js, 2, blob), evs, ix)
}

// openEnvelope frames js and the first blobs of nBlobs; the caller
// appends the rest.
func openEnvelope(js []byte, nBlobs int, blobs ...[]byte) []byte {
	n := 1 + 4 + len(js) + 4
	for _, b := range blobs {
		n += 4 + len(b)
	}
	out := binary.BigEndian.AppendUint32(append(make([]byte, 0, n), blobEnvelopeMagic), uint32(len(js)))
	out = binary.BigEndian.AppendUint32(append(out, js...), uint32(nBlobs))
	for _, b := range blobs {
		out = append(binary.BigEndian.AppendUint32(out, uint32(len(b))), b...)
	}
	return out
}

// decBlobEnvelope splits an envelope payload. A payload that does not
// start with the magic byte is plain JSON: it comes back unchanged
// with no blobs. Returned slices alias the payload.
func decBlobEnvelope(p []byte) (js []byte, blobs [][]byte, err error) {
	if len(p) == 0 || p[0] != blobEnvelopeMagic {
		return p, nil, nil
	}
	take := func(b []byte) ([]byte, []byte, error) {
		if len(b) < 4 {
			return nil, nil, fmt.Errorf("wire: truncated blob envelope")
		}
		n := int(binary.BigEndian.Uint32(b))
		b = b[4:]
		if n < 0 || n > len(b) {
			return nil, nil, fmt.Errorf("wire: blob envelope length %d exceeds payload", n)
		}
		return b[:n], b[n:], nil
	}
	b := p[1:]
	if js, b, err = take(b); err != nil {
		return nil, nil, err
	}
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wire: truncated blob envelope")
	}
	nBlobs := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	blobs = make([][]byte, 0, min(nBlobs, len(b)/4))
	for i := 0; i < nBlobs; i++ {
		var blob []byte
		if blob, b, err = take(b); err != nil {
			return nil, nil, err
		}
		blobs = append(blobs, blob)
	}
	if len(b) != 0 {
		return nil, nil, fmt.Errorf("wire: %d trailing bytes after blob envelope", len(b))
	}
	return js, blobs, nil
}

// ---------------------------------------------------------------------
// Binary schedules. The start bundle ships a self-contained schedule —
// flattened graph, machine, slots, messages — to every worker, and the
// JSON form made its decode the single most expensive step of starting
// a distributed run. The binary form routes every node ID, variable
// name, label and routine through one string table (task IDs repeat
// across nodes, arcs, slots and messages; identical routines collapse
// to one entry), with fixed-layout records around it. The machine
// document is small and stays JSON inside the binary envelope.

const schedCodecVersion = 1

// stringTable interns strings during encoding.
type stringTable struct {
	table []string
	index map[string]uint32
}

func newStringTable() *stringTable {
	return &stringTable{index: map[string]uint32{}}
}

func (t *stringTable) ref(s string) uint32 {
	if i, ok := t.index[s]; ok {
		return i
	}
	i := uint32(len(t.table))
	t.index[s] = i
	t.table = append(t.table, s)
	return i
}

func (t *stringTable) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(t.table)))
	for _, s := range t.table {
		b = appendString(b, s)
	}
	return b
}

func decodeStringTable(b []byte) ([]string, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("wire: truncated string table")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	// Untrusted count: every entry needs at least its 4 length bytes.
	table := make([]string, 0, min(n, len(b)/4))
	for i := 0; i < n; i++ {
		s, rest, err := decodeString(b)
		if err != nil {
			return nil, nil, err
		}
		table = append(table, s)
		b = rest
	}
	return table, b, nil
}

// EncodeSchedule encodes a schedule for the start bundle. Scheduled
// graphs are flat — Flatten dissolves decomposable nodes before any
// scheduler runs — so KindSub nodes are rejected rather than encoded.
func EncodeSchedule(s *sched.Schedule) ([]byte, error) {
	mb, err := s.Machine.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("wire: marshal machine: %w", err)
	}
	t := newStringTable()
	// Intern everything first; the table is written before the records.
	algRef := t.ref(s.Algorithm)
	nameRef := t.ref(s.Graph.Name)
	nodes := s.Graph.Nodes()
	nodeRefs := make([][3]uint32, len(nodes))
	for i, n := range nodes {
		if n.Kind == graph.KindSub {
			return nil, fmt.Errorf("wire: cannot encode unflattened graph (sub node %s)", n.ID)
		}
		nodeRefs[i] = [3]uint32{t.ref(string(n.ID)), t.ref(n.Label), t.ref(n.Routine)}
	}
	arcs := s.Graph.Arcs()
	arcRefs := make([][3]uint32, len(arcs))
	for i, a := range arcs {
		arcRefs[i] = [3]uint32{t.ref(string(a.From)), t.ref(string(a.To)), t.ref(a.Var)}
	}
	slotRefs := make([]uint32, len(s.Slots))
	for i, sl := range s.Slots {
		slotRefs[i] = t.ref(string(sl.Task))
	}
	msgRefs := make([][3]uint32, len(s.Msgs))
	for i, m := range s.Msgs {
		msgRefs[i] = [3]uint32{t.ref(string(m.From)), t.ref(string(m.To)), t.ref(m.Var)}
	}

	b := []byte{schedCodecVersion}
	b = t.encode(b)
	b = binary.BigEndian.AppendUint32(b, algRef)
	b = appendString(b, string(mb))
	b = binary.BigEndian.AppendUint32(b, nameRef)
	b = binary.BigEndian.AppendUint32(b, uint32(len(nodes)))
	for i, n := range nodes {
		b = binary.BigEndian.AppendUint32(b, nodeRefs[i][0])
		b = binary.BigEndian.AppendUint32(b, nodeRefs[i][1])
		b = append(b, byte(n.Kind))
		b = binary.BigEndian.AppendUint64(b, uint64(n.Work))
		b = binary.BigEndian.AppendUint32(b, nodeRefs[i][2])
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(arcs)))
	for i, a := range arcs {
		b = binary.BigEndian.AppendUint32(b, arcRefs[i][0])
		b = binary.BigEndian.AppendUint32(b, arcRefs[i][1])
		b = binary.BigEndian.AppendUint32(b, arcRefs[i][2])
		b = binary.BigEndian.AppendUint64(b, uint64(a.Words))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Slots)))
	for i, sl := range s.Slots {
		b = binary.BigEndian.AppendUint32(b, slotRefs[i])
		b = binary.BigEndian.AppendUint32(b, uint32(int32(sl.PE)))
		b = binary.BigEndian.AppendUint64(b, uint64(sl.Start))
		b = binary.BigEndian.AppendUint64(b, uint64(sl.Finish))
		if sl.Dup {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(s.Msgs)))
	for i, m := range s.Msgs {
		b = binary.BigEndian.AppendUint32(b, msgRefs[i][0])
		b = binary.BigEndian.AppendUint32(b, msgRefs[i][1])
		b = binary.BigEndian.AppendUint32(b, msgRefs[i][2])
		b = binary.BigEndian.AppendUint32(b, uint32(int32(m.FromPE)))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(m.ToPE)))
		b = binary.BigEndian.AppendUint64(b, uint64(m.Words))
		b = binary.BigEndian.AppendUint64(b, uint64(m.Send))
		b = binary.BigEndian.AppendUint64(b, uint64(m.Recv))
		b = binary.BigEndian.AppendUint32(b, uint32(int32(m.Hops)))
	}
	return b, nil
}

// DecodeSchedule decodes an EncodeSchedule payload and re-validates it,
// exactly as the JSON path does: a tampered bundle cannot produce an
// inconsistent schedule silently.
func DecodeSchedule(b []byte) (*sched.Schedule, error) {
	fail := func(what string) (*sched.Schedule, error) {
		return nil, fmt.Errorf("wire: truncated schedule (%s)", what)
	}
	if len(b) < 1 {
		return fail("version")
	}
	if b[0] != schedCodecVersion {
		return nil, fmt.Errorf("wire: schedule codec version %d, want %d", b[0], schedCodecVersion)
	}
	table, b, err := decodeStringTable(b[1:])
	if err != nil {
		return nil, err
	}
	str := func(b []byte) (string, error) {
		i := binary.BigEndian.Uint32(b)
		if int(i) >= len(table) {
			return "", fmt.Errorf("wire: schedule string reference %d outside table of %d", i, len(table))
		}
		return table[i], nil
	}
	if len(b) < 4 {
		return fail("algorithm")
	}
	alg, err := str(b)
	if err != nil {
		return nil, err
	}
	mb, b, err := decodeString(b[4:])
	if err != nil {
		return nil, err
	}
	m := &machine.Machine{}
	if err := m.UnmarshalJSON([]byte(mb)); err != nil {
		return nil, fmt.Errorf("wire: schedule machine: %w", err)
	}
	if len(b) < 8 {
		return fail("graph header")
	}
	name, err := str(b)
	if err != nil {
		return nil, err
	}
	g := graph.New(name)
	nNodes := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	for i := 0; i < nNodes; i++ {
		const rec = 4 + 4 + 1 + 8 + 4
		if len(b) < rec {
			return fail("node record")
		}
		id, err := str(b)
		if err != nil {
			return nil, err
		}
		label, err := str(b[4:])
		if err != nil {
			return nil, err
		}
		kind := graph.Kind(b[8])
		work := int64(binary.BigEndian.Uint64(b[9:]))
		routine, err := str(b[17:])
		if err != nil {
			return nil, err
		}
		b = b[rec:]
		var n *graph.Node
		switch kind {
		case graph.KindTask:
			n, err = g.AddTask(graph.NodeID(id), label, work)
		case graph.KindStorage:
			n, err = g.AddStorage(graph.NodeID(id), label)
		case graph.KindInput:
			n, err = g.AddInput(graph.NodeID(id))
		case graph.KindOutput:
			n, err = g.AddOutput(graph.NodeID(id))
		default:
			return nil, fmt.Errorf("wire: schedule node %s has kind %d", id, kind)
		}
		if err != nil {
			return nil, fmt.Errorf("wire: schedule graph: %w", err)
		}
		n.Label, n.Work, n.Routine = label, work, routine
	}
	if len(b) < 4 {
		return fail("arc count")
	}
	nArcs := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	for i := 0; i < nArcs; i++ {
		const rec = 4 + 4 + 4 + 8
		if len(b) < rec {
			return fail("arc record")
		}
		from, err := str(b)
		if err != nil {
			return nil, err
		}
		to, err := str(b[4:])
		if err != nil {
			return nil, err
		}
		v, err := str(b[8:])
		if err != nil {
			return nil, err
		}
		words := int64(binary.BigEndian.Uint64(b[12:]))
		b = b[rec:]
		if err := g.Connect(graph.NodeID(from), graph.NodeID(to), v, words); err != nil {
			return nil, fmt.Errorf("wire: schedule graph: %w", err)
		}
	}
	s := &sched.Schedule{Graph: g, Machine: m, Algorithm: alg}
	if len(b) < 4 {
		return fail("slot count")
	}
	nSlots := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if hint := len(b) / (4 + 4 + 8 + 8 + 1); nSlots <= hint {
		s.Slots = make([]sched.Slot, 0, nSlots)
	}
	for i := 0; i < nSlots; i++ {
		const rec = 4 + 4 + 8 + 8 + 1
		if len(b) < rec {
			return fail("slot record")
		}
		task, err := str(b)
		if err != nil {
			return nil, err
		}
		s.Slots = append(s.Slots, sched.Slot{
			Task:   graph.NodeID(task),
			PE:     int(int32(binary.BigEndian.Uint32(b[4:]))),
			Start:  machine.Time(binary.BigEndian.Uint64(b[8:])),
			Finish: machine.Time(binary.BigEndian.Uint64(b[16:])),
			Dup:    b[24] != 0,
		})
		b = b[rec:]
	}
	if len(b) < 4 {
		return fail("message count")
	}
	nMsgs := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if hint := len(b) / (3*4 + 2*4 + 3*8 + 4); nMsgs <= hint {
		s.Msgs = make([]sched.Msg, 0, nMsgs)
	}
	for i := 0; i < nMsgs; i++ {
		const rec = 3*4 + 2*4 + 3*8 + 4
		if len(b) < rec {
			return fail("message record")
		}
		from, err := str(b)
		if err != nil {
			return nil, err
		}
		to, err := str(b[4:])
		if err != nil {
			return nil, err
		}
		v, err := str(b[8:])
		if err != nil {
			return nil, err
		}
		s.Msgs = append(s.Msgs, sched.Msg{
			From: graph.NodeID(from), To: graph.NodeID(to), Var: v,
			FromPE: int(int32(binary.BigEndian.Uint32(b[12:]))),
			ToPE:   int(int32(binary.BigEndian.Uint32(b[16:]))),
			Words:  int64(binary.BigEndian.Uint64(b[20:])),
			Send:   machine.Time(binary.BigEndian.Uint64(b[28:])),
			Recv:   machine.Time(binary.BigEndian.Uint64(b[36:])),
			Hops:   int(int32(binary.BigEndian.Uint32(b[44:]))),
		})
		b = b[rec:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after schedule", len(b))
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("wire: shipped schedule invalid: %w", err)
	}
	return s, nil
}

// ---------------------------------------------------------------------
// Binary trace-event lists. A run's result carries thousands of events,
// and both ends hold the run's flat graph — a daemon inside the schedule
// it holds, the coordinator as handed to it. So a task travels as its
// position in the graph's node order, a variable as the position of an
// arc carrying it, and decoded names alias the graph's strings: a result
// carries no string table. A record is eight varints — kind and
// duplicate flag, time, processor, peer, sequence number, byte count,
// task and variable reference (0: inline) — then three strings: the task
// and the variable when the graph does not hold them, and the note. A
// zero costs a byte; a run's records average 16.

// NameIndex is what the event encoder looks names up in: for a task ID,
// its position in the graph's node order, and for a variable, the
// position of an arc carrying it, each plus one, in the low and the high
// 32 bits. Build it once per graph (a daemon holds one per schedule),
// never per result.
type NameIndex map[string]int64

// NewNameIndex indexes g's task IDs and variables for the events codec.
func NewNameIndex(g *graph.Graph) NameIndex {
	ix := NameIndex{}
	for i, n := range g.Nodes() {
		ix[string(n.ID)] |= int64(i) + 1
	}
	for i, a := range g.Arcs() {
		ix[a.Var] = ix[a.Var]&(1<<32-1) | (int64(i)+1)<<32
	}
	return ix
}

// appendEvents appends the encoding of evs against ix — their count,
// then their records — as an envelope blob, behind its 4-byte length. It
// measures the records on the stack first, so b grows at most once.
func appendEvents(b []byte, evs []trace.Event, ix NameIndex) []byte {
	var tmp [64]byte
	n := len(binary.AppendUvarint(tmp[:0], uint64(len(evs))))
	for i := range evs {
		n += len(appendEvent(tmp[:0], &evs[i], ix))
	}
	b = binary.BigEndian.AppendUint32(slices.Grow(b, 4+n), uint32(n))
	b = binary.AppendUvarint(b, uint64(len(evs)))
	for i := range evs {
		b = appendEvent(b, &evs[i], ix)
	}
	return b
}

func appendEvent(b []byte, e *trace.Event, ix NameIndex) []byte {
	t, a, kind := ix[string(e.Task)]&(1<<32-1), ix[e.Var]>>32, int64(e.Kind)<<1
	task, v := string(e.Task), e.Var
	if t != 0 {
		task = ""
	}
	if a != 0 {
		v = ""
	}
	if e.Dup {
		kind |= 1
	}
	for _, x := range [...]int64{kind, int64(e.At), int64(e.PE), int64(e.Peer), int64(e.Seq), e.Bytes, t, a} {
		b = binary.AppendVarint(b, x)
	}
	for _, s := range [...]string{task, v, e.Note} {
		b = append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	return b
}

var errBadEvents = fmt.Errorf("wire: event list truncated or referring outside its graph")

// eventCount reads the untrusted count an events payload opens
// with, and its length: a record takes at least eleven bytes, so a count
// the bytes cannot hold is an error.
func eventCount(b []byte) (int, int, error) {
	n, k := binary.Uvarint(b)
	if k <= 0 || n > uint64(len(b)-k)/11 {
		return 0, 0, fmt.Errorf("wire: event count does not fit its %d bytes", len(b))
	}
	return int(n), k, nil
}

// AppendEvents decodes an events payload against g, the graph it
// was encoded on, onto dst, which grows at most once. Every malformed
// input is an error, and leaves dst's events as they were: a truncated
// record, a reference outside g, a count the bytes cannot hold.
func AppendEvents(dst []trace.Event, b []byte, g *graph.Graph) ([]trace.Event, error) {
	n, k, err := eventCount(b)
	if err != nil {
		return dst, err
	}
	b, nodes, arcs := b[k:], g.Nodes(), g.Arcs()
	out := slices.Grow(dst, n)[:len(dst)+n]
	evs := out[len(dst):]
	for i := range evs {
		var x [8]int64
		var s [3]string
		for j := range x {
			if x[j], k = binary.Varint(b); k <= 0 {
				return dst, errBadEvents
			}
			b = b[k:]
		}
		for j := range s {
			l, k := binary.Uvarint(b)
			if k <= 0 || l > uint64(len(b)-k) {
				return dst, errBadEvents
			}
			s[j], b = string(b[k:k+int(l)]), b[k+int(l):]
		}
		t, a := uint64(x[6]), uint64(x[7])
		if t > uint64(len(nodes)) || a > uint64(len(arcs)) {
			return dst, errBadEvents
		}
		if t > 0 {
			s[0] = string(nodes[t-1].ID)
		}
		if a > 0 {
			s[1] = arcs[a-1].Var
		}
		evs[i] = trace.Event{Kind: trace.Kind(x[0] >> 1), Dup: x[0]&1 != 0, At: machine.Time(x[1]), PE: int(x[2]),
			Peer: int(x[3]), Seq: uint64(x[4]), Bytes: x[5], Task: graph.NodeID(s[0]), Var: s[1], Note: s[2]}
	}
	if len(b) != 0 {
		return dst, fmt.Errorf("wire: %d trailing bytes after %d events", len(b), n)
	}
	return out, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

func decodeString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("wire: truncated string length")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) < n {
		return "", nil, fmt.Errorf("wire: truncated string of %d bytes", n)
	}
	return string(b[:n]), b[n:], nil
}
