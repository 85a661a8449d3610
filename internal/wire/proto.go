package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/sched"
)

// Control payloads are JSON (small, evolvable, debuggable); data and
// heartbeat payloads are binary (exact floats, hot path). Every frame
// is integrity-checked by the frame-level fnv64a checksum.

// Hello opens a connection: the dialer — the coordinator, or a worker
// dialing into the mesh — identifies the run and, on a reconnect, its
// receive watermark so the accepting side can replay what was lost
// with the old connection. Peer distinguishes the two dialers: 0 is
// the coordinator, k > 0 is worker k-1 establishing a mesh link. A
// coordinator's Hello also names the schedule the run executes by its
// digest (see shipment), so the Welcome can say whether the start bundle
// needs to carry it.
type Hello struct {
	Proto  byte   `json:"proto"`
	Run    string `json:"run"`              // run id; empty before Start
	Rcvd   uint64 `json:"rcvd,omitempty"`   // dialer's cumulative received wid
	Peer   int    `json:"peer,omitempty"`   // 1+worker index of a mesh dialer
	Digest string `json:"digest,omitempty"` // the run's schedule, by content
}

// Welcome answers a Hello with the worker's own watermark. Have says the
// daemon holds the schedule the Hello's digest names and has pinned it
// to the run: the start bundle may come without it.
type Welcome struct {
	Proto byte   `json:"proto"`
	Rcvd  uint64 `json:"rcvd,omitempty"`
	Have  bool   `json:"have,omitempty"`
}

// RunOpts carries the Runner knobs a worker must reproduce.
type RunOpts struct {
	VirtualTime bool   `json:"virtual,omitempty"`
	FaultSpec   string `json:"faults,omitempty"` // exec.FaultPlan.String() / ParseFaults grammar
	Retry       bool   `json:"retry,omitempty"`
	MaxSteps    int64  `json:"maxSteps,omitempty"`
}

// Runner builds an exec.Runner from the shipped options.
func (o RunOpts) Runner() (*exec.Runner, error) {
	r := &exec.Runner{VirtualTime: o.VirtualTime, Retry: o.Retry, MaxSteps: o.MaxSteps}
	if o.FaultSpec != "" {
		p, err := exec.ParseFaults(o.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("wire: shipped fault plan: %w", err)
		}
		r.Faults = p
	}
	return r, nil
}

// OptsFor captures a Runner's knobs for shipping. The fault plan
// travels as its spec string (the ParseFaults grammar round-trips).
func OptsFor(r *exec.Runner) RunOpts {
	o := RunOpts{VirtualTime: r.VirtualTime, Retry: r.Retry, MaxSteps: r.MaxSteps}
	if r.Faults != nil {
		o.FaultSpec = r.Faults.String()
	}
	return o
}

// StartBundle is everything a worker needs to host its share of a run:
// the self-contained schedule (graph and machine embedded), the
// flattening's external bindings, the input data, its hosted processor
// mask and the runner options. The schedule and the bindings are left
// out when the daemon's Welcome said it holds them.
type StartBundle struct {
	Run     string `json:"run"`
	Worker  int    `json:"worker"`  // this worker's index
	Workers int    `json:"workers"` // total worker count
	Hosted  []bool `json:"hosted"`
	// ScheduleBin is the EncodeSchedule form of the schedule.
	ScheduleBin []byte                    `json:"scheduleBin,omitempty"`
	ExternalIn  map[graph.NodeID][]string `json:"externalIn,omitempty"`
	ExternalOut map[graph.NodeID][]string `json:"externalOut,omitempty"`
	Inputs      []byte                    `json:"inputs"` // EncodeEnv bytes
	Opts        RunOpts                   `json:"opts"`
	// Heartbeat cadence and the silence budget after which a peer is
	// declared dead (nanoseconds).
	HeartbeatEvery int64 `json:"heartbeatEvery"`
	PeerTimeout    int64 `json:"peerTimeout"`
	// Mesh data plane. Peers lists every worker's listen address by
	// worker index and PeerOf maps each processor to the worker hosting
	// it, so a sender can route a data frame point-to-point.
	Peers  []string `json:"peers,omitempty"`
	PeerOf []int    `json:"peerOf,omitempty"`
	// Plan is set for a worker joining a run already in flight: the
	// same global replan the surviving sessions install with Resume.
	// The new session starts directly in Plan.Epoch with its virtual
	// clocks at Plan.Clock (the run's global maximum at the barrier).
	Plan *ResumeNote `json:"plan,omitempty"`
}

// shipment is a schedule as a daemon receives it: the EncodeSchedule
// blob and the digest a Hello names it by, for the design it was last
// shipped with.
type shipment struct {
	bin    []byte
	flat   *graph.Flat
	digest string
}

// scheduleDigest is the content address of a schedule on the wire: it
// covers every byte of a start bundle that decides what a daemon
// compiles — the EncodeSchedule blob and the design's external
// bindings — and nothing that varies per run. Both ends compute it from
// the bytes they hold, so a daemon never runs a schedule on a
// coordinator's word for what it is. (encoding/json writes map keys in
// sorted order and never a zero byte; an empty binding map travels as
// an absent one, so neither is written.)
func scheduleDigest(bin []byte, in, out map[graph.NodeID][]string) string {
	h := sha256.New()
	h.Write(encU64(uint64(len(bin))))
	h.Write(bin)
	for _, m := range [2]map[graph.NodeID][]string{in, out} {
		if len(m) > 0 {
			h.Write(encJSON(m))
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// shipments memoizes the shipment of each schedule its owner runs: a
// schedule is immutable once finalized, so it is encoded and digested
// once however many runs ship it. A fleet owns one for all its runs. It
// pins what it keys on, so it stays small and is dropped wholesale at
// its cap.
type shipments struct {
	mu sync.Mutex
	m  map[*sched.Schedule]*shipment
}

const shipmentsMax = 16

func (m *shipments) of(s *sched.Schedule, flat *graph.Flat) (*shipment, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if sh := m.m[s]; sh != nil && sh.flat == flat {
		return sh, nil
	}
	bin, err := EncodeSchedule(s)
	if err != nil {
		return nil, fmt.Errorf("wire: encode schedule: %w", err)
	}
	if m.m == nil || len(m.m) >= shipmentsMax {
		m.m = map[*sched.Schedule]*shipment{}
	}
	m.m[s] = &shipment{bin, flat, scheduleDigest(bin, flat.ExternalIn, flat.ExternalOut)}
	return m.m[s], nil
}

// held is a schedule in a daemon's table, with the design rebuilt around
// it once: every run a daemon hosts of one schedule shares the pair, and
// with it the era the first of them compiled (exec parks it on the
// schedule, keyed to the design).
type held struct {
	s     *sched.Schedule
	flat  *graph.Flat
	names NameIndex // what its runs' trace events are encoded against
}

// heldMax bounds a daemon's schedule table, dropped wholesale when full;
// a run in flight keeps its own reference.
const heldMax = 64

// CrashNote reports an injected crash of a hosted processor.
type CrashNote struct {
	PE int `json:"pe"`
}

// PauseNote qualifies a Pause order. A nil/empty Pause payload is the
// plain recovery barrier; Checkpoint asks the worker (a graceful drain
// target) to pack its full local state into the Parked reply.
type PauseNote struct {
	Checkpoint bool `json:"checkpoint,omitempty"`
}

// JoinNote announces a worker on a fleet's control listener: Addr is
// the worker daemon's listen address, which a run that takes the worker
// in dials back exactly like a placed member. The control connection is
// answered with Welcome once the fleet has recorded the member, or
// Error when it cannot (a fleet shutting down).
type JoinNote struct {
	Addr string `json:"addr"`
}

// DrainNote asks a fleet to gracefully evacuate a member: by listen
// address, or when Addr is empty by its index in the fleet's sorted
// members. The control connection is answered with Welcome once the
// worker has left every run it served with all its state handed over,
// or Error when the drain is not possible.
type DrainNote struct {
	Worker int    `json:"worker"`
	Addr   string `json:"addr,omitempty"`
}

// ParkedNote is a session's PauseState: the worker's answer to Pause.
// A checkpoint reply (graceful drain) travels as a blob envelope:
// this JSON plus Printed/PrintedPE, with the worker-local env
// checkpoint (EncodeCheckpoint) and the trace events (encoded against
// the schedule's NameIndex) out of band.
type ParkedNote struct {
	Done  map[graph.NodeID]int `json:"done,omitempty"`
	Held  []string             `json:"held,omitempty"`
	Dead  []int                `json:"dead,omitempty"`
	Clock machine.Time         `json:"clock,omitempty"`
	// Checkpoint-only: the drain target's print lines so far, tagged by
	// processor (its final partial will never arrive).
	Printed   []string `json:"printed,omitempty"`
	PrintedPE []int    `json:"printedPE,omitempty"`
}

// parkedNote is the wire form of a pause state: plain JSON, or for a
// checkpoint an envelope whose two blobs are the env store and the trace
// events, encoded against ix.
func parkedNote(st *exec.PauseState, ix NameIndex) ([]byte, error) {
	n := encJSON(ParkedNote{Done: st.Done, Held: st.Held, Dead: st.Dead, Clock: st.Clock,
		Printed: st.Printed, PrintedPE: st.PrintedPE})
	if st.Local == nil {
		return n, nil
	}
	ckpt, err := EncodeCheckpoint(st.Local)
	if err != nil {
		return nil, err
	}
	return encEventsEnvelope(n, ckpt, st.Events, ix), nil
}

// state is parkedNote's inverse: the pause state the note and its
// envelope blobs (none, or a checkpoint's two, whose events decode on
// g) describe.
func (n ParkedNote) state(blobs [][]byte, g *graph.Graph) (*exec.PauseState, error) {
	st := &exec.PauseState{Done: n.Done, Held: n.Held, Dead: n.Dead, Clock: n.Clock,
		Printed: n.Printed, PrintedPE: n.PrintedPE}
	if len(blobs) < 2 {
		return st, nil
	}
	var err error
	if st.Local, err = DecodeCheckpoint(blobs[0]); err != nil {
		return nil, err
	}
	if st.Events, err = AppendEvents(nil, blobs[1], g); err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	return st, nil
}

// ImportRef names one surviving task result re-homed by a drain: the
// env bytes ride out of band, one blob per import, in Imports order.
type ImportRef struct {
	Task graph.NodeID `json:"task"`
	PE   int          `json:"pe"`
}

// ResumeNote is the global recovery plan a worker installs at the
// barrier (exec.ResumePlan over the wire). When Imports is non-empty
// the note travels as a blob envelope with one EncodeEnv blob per
// import; a plain JSON payload stays decodable by the same path.
type ResumeNote struct {
	Epoch int64                `json:"epoch"`
	Slots []sched.Slot         `json:"slots"`
	Msgs  []sched.Msg          `json:"msgs,omitempty"`
	Done  map[graph.NodeID]int `json:"done,omitempty"`
	Dead  []bool               `json:"dead"`
	Adopt []exec.Adoption      `json:"adopt,omitempty"`
	// Imports re-home a drained worker's surviving task results onto
	// live processors (see ImportRef).
	Imports []ImportRef `json:"imports,omitempty"`
	// Peers/PeerOf update the mesh membership after a join: the new
	// worker's address appends to the list and revived processors map
	// to it. Empty means no membership change.
	Peers  []string `json:"peers,omitempty"`
	PeerOf []int    `json:"peerOf,omitempty"`
	// Clock is the run's latest virtual clock at the barrier; a joiner
	// starts its processors there.
	Clock machine.Time `json:"clock,omitempty"`
}

// resumeNote is the wire form of a resume plan: the note, and one
// EncodeEnv blob per import in Imports order.
func resumeNote(p *exec.ResumePlan) (ResumeNote, [][]byte, error) {
	n := ResumeNote{Epoch: p.Epoch, Slots: p.Slots, Msgs: p.Msgs, Done: p.Done,
		Dead: p.Dead, Adopt: p.Adopt, Clock: p.Clock}
	var blobs [][]byte
	for _, im := range p.Imports {
		eb, err := EncodeEnv(im.Env)
		if err != nil {
			return n, nil, fmt.Errorf("wire: encode drain import for task %s: %w", im.Task, err)
		}
		n.Imports = append(n.Imports, ImportRef{Task: im.Task, PE: im.PE})
		blobs = append(blobs, eb)
	}
	return n, blobs, nil
}

// plan is resumeNote's inverse: the plan a session installs, with the
// envelope's blobs decoded into the imports' envs.
func (n *ResumeNote) plan(blobs [][]byte) (*exec.ResumePlan, error) {
	p := &exec.ResumePlan{Epoch: n.Epoch, Slots: n.Slots, Msgs: n.Msgs, Done: n.Done,
		Dead: n.Dead, Adopt: n.Adopt, Clock: n.Clock}
	if len(blobs) < len(n.Imports) {
		return nil, fmt.Errorf("resume names %d imports but carries %d env blobs", len(n.Imports), len(blobs))
	}
	for i, ref := range n.Imports {
		env, err := DecodeEnv(blobs[i])
		if err != nil {
			return nil, fmt.Errorf("bad import env for task %s: %w", ref.Task, err)
		}
		p.Imports = append(p.Imports, exec.Import{Task: ref.Task, PE: ref.PE, Env: env})
	}
	return p, nil
}

// ResultNote is a worker's partial result at the end of a run. It
// travels as a blob envelope: this JSON, then the outputs (EncodeEnv)
// and the trace events (encoded against the schedule's NameIndex) out of
// band.
type ResultNote struct {
	Exports map[string]graph.NodeID `json:"exports,omitempty"`
	Printed []string                `json:"printed,omitempty"`
	// PrintedPE tags each print line with its processor, so the merge
	// restores ascending-processor order under non-contiguous placement.
	PrintedPE []int `json:"printedPE,omitempty"`
	// Sends and Flushes are the session's remote-plane counts (see
	// exec.Partial), the one thing the run counts that its log does not
	// record; the run's other counts are folded from the log it merges.
	Sends   int64 `json:"sends,omitempty"`
	Flushes int64 `json:"flushes,omitempty"`
}

// ErrorNote aborts the run with a root cause.
type ErrorNote struct {
	Msg string `json:"msg"`
}

// encJSON marshals a control payload; the payload types above cannot
// fail to marshal.
func encJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("wire: marshal %T: %v", v, err))
	}
	return b
}

func decJSON[T any](payload []byte, what string) (T, error) {
	var v T
	if err := json.Unmarshal(payload, &v); err != nil {
		return v, fmt.Errorf("wire: bad %s payload: %w", what, err)
	}
	return v, nil
}

// Heartbeats carry no payload; ack payloads carry the cumulative
// received wid (8 bytes BE).

func encU64(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }

func decU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("wire: expected 8-byte payload, got %d", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}
