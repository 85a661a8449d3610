package exec

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/sched"
)

// This file is the chaos harness: a deterministic, seeded fault plan
// the runner consults while executing, so every robustness test (and
// the -faults CLI flag) can crash processors and mangle messages at
// exactly reproducible points.

// FaultKind classifies an injected fault.
type FaultKind int

// Fault kinds.
const (
	// FaultCrash kills a processor just before it executes its Slot-th
	// task (counting every task the worker runs, across recoveries).
	FaultCrash FaultKind = iota
	// FaultDrop loses a scheduled message in transit.
	FaultDrop
	// FaultDup delivers a scheduled message twice.
	FaultDup
	// FaultDelay holds a scheduled message back by Delay.
	FaultDelay
	// FaultCorrupt flips the payload of a scheduled message in transit
	// (the checksum still describes the original, so the receiver can
	// tell).
	FaultCorrupt
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDrop:
		return "drop"
	case FaultDup:
		return "dup"
	case FaultDelay:
		return "delay"
	case FaultCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// Fault is one injected fault. Crash faults use PE and Slot; message
// faults use From/To/Var (matching the schedule's Msg records), Count
// (how many matching sends to hit; 0 means 1) and, for delays, Delay.
type Fault struct {
	Kind  FaultKind
	PE    int
	Slot  int
	From  graph.NodeID
	To    graph.NodeID
	Var   string
	Delay machine.Time
	Count int
}

// String renders the fault in the -faults spec grammar.
func (f Fault) String() string {
	switch f.Kind {
	case FaultCrash:
		return fmt.Sprintf("crash:%d@%d", f.PE, f.Slot)
	case FaultDelay:
		return fmt.Sprintf("delay:%s->%s:%s@%d", f.From, f.To, f.Var, int64(f.Delay))
	default:
		s := fmt.Sprintf("%s:%s->%s:%s", f.Kind, f.From, f.To, f.Var)
		if f.Count > 1 {
			s += fmt.Sprintf("@%d", f.Count)
		}
		return s
	}
}

// FaultPlan is a deterministic list of faults to inject during a run.
type FaultPlan struct {
	Faults []Fault
}

// String renders the plan in the -faults spec grammar.
func (p *FaultPlan) String() string {
	parts := make([]string, len(p.Faults))
	for i, f := range p.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// ParseFaults parses a comma-separated fault spec:
//
//	crash:PE@SLOT              kill processor PE before its SLOT-th task
//	drop:FROM->TO:VAR[@N]      lose the message (the first N matches)
//	dup:FROM->TO:VAR[@N]       deliver the message twice
//	corrupt:FROM->TO:VAR[@N]   flip the payload in transit
//	delay:FROM->TO:VAR@USEC    hold the message back by USEC microseconds
func ParseFaults(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fault %q: want kind:args", part)
		}
		var kind FaultKind
		switch kindStr {
		case "crash":
			kind = FaultCrash
		case "drop":
			kind = FaultDrop
		case "dup":
			kind = FaultDup
		case "delay":
			kind = FaultDelay
		case "corrupt":
			kind = FaultCorrupt
		default:
			return nil, fmt.Errorf("fault %q: unknown kind %q", part, kindStr)
		}
		if kind == FaultCrash {
			var pe, slot int
			if n, err := fmt.Sscanf(rest, "%d@%d", &pe, &slot); n != 2 || err != nil {
				return nil, fmt.Errorf("fault %q: want crash:PE@SLOT", part)
			}
			if pe < 0 || slot < 0 {
				return nil, fmt.Errorf("fault %q: negative PE or slot", part)
			}
			plan.Faults = append(plan.Faults, Fault{Kind: FaultCrash, PE: pe, Slot: slot})
			continue
		}
		edge, arg := rest, ""
		if kind == FaultDelay {
			var ok bool
			if edge, arg, ok = cutLast(rest, "@"); !ok || arg == "" {
				return nil, fmt.Errorf("fault %q: want delay:FROM->TO:VAR@USEC", part)
			}
		} else if e, a, ok := cutLast(rest, "@"); ok {
			edge, arg = e, a
		}
		from, rest2, ok := strings.Cut(edge, "->")
		if !ok {
			return nil, fmt.Errorf("fault %q: want FROM->TO:VAR", part)
		}
		to, v, ok := strings.Cut(rest2, ":")
		// Trim the fields (the spec itself is trimmed, so edge whitespace
		// would not survive a re-render) and require all three non-empty.
		from, to, v = strings.TrimSpace(from), strings.TrimSpace(to), strings.TrimSpace(v)
		if !ok || from == "" || to == "" || v == "" {
			return nil, fmt.Errorf("fault %q: want FROM->TO:VAR", part)
		}
		// "@" is reserved for the count/delay suffix; a task or variable
		// name containing it would render to an unparseable spec.
		if strings.ContainsRune(from+to+v, '@') {
			return nil, fmt.Errorf("fault %q: \"@\" not allowed in FROM/TO/VAR", part)
		}
		f := Fault{Kind: kind, From: graph.NodeID(from), To: graph.NodeID(to), Var: v, Count: 1}
		if arg != "" {
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("fault %q: bad count/delay %q", part, arg)
			}
			if kind == FaultDelay {
				f.Delay = machine.Time(n)
			} else {
				f.Count = int(n)
			}
		}
		plan.Faults = append(plan.Faults, f)
	}
	if len(plan.Faults) == 0 {
		return nil, fmt.Errorf("fault spec %q: no faults", spec)
	}
	return plan, nil
}

// cutLast cuts s around the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// RandomFaults draws a seeded fault plan for the schedule: one
// processor crash at a random slot plus one dropped cross-processor
// message. The same seed on the same schedule yields the same plan.
// Returns nil if the schedule offers nothing to break (single PE used
// and no messages).
func RandomFaults(seed int64, s *sched.Schedule) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	plan := &FaultPlan{}
	// Crash a processor that has work, chosen among the busy ones; never
	// crash the only busy processor of a 1-PE machine (nothing could
	// recover).
	if s.Machine.NumPE() > 1 {
		var busy []int
		for pe := 0; pe < s.Machine.NumPE(); pe++ {
			if len(s.PESlots(pe)) > 0 {
				busy = append(busy, pe)
			}
		}
		if len(busy) > 0 {
			pe := busy[rng.Intn(len(busy))]
			plan.Faults = append(plan.Faults, Fault{
				Kind: FaultCrash, PE: pe, Slot: rng.Intn(len(s.PESlots(pe))),
			})
		}
	}
	var cross []sched.Msg
	for _, m := range s.Msgs {
		if m.FromPE != m.ToPE {
			cross = append(cross, m)
		}
	}
	if len(cross) > 0 {
		m := cross[rng.Intn(len(cross))]
		plan.Faults = append(plan.Faults, Fault{
			Kind: FaultDrop, From: m.From, To: m.To, Var: m.Var, Count: 1,
		})
	}
	if len(plan.Faults) == 0 {
		return nil
	}
	return plan
}

// faultState is the runtime view of a fault plan: remaining application
// counts guarded by a mutex (senders on different processors consult it
// concurrently).
type faultState struct {
	mu        sync.Mutex
	crashes   map[int]int // pe -> executed-task index to die at
	msgFaults []*msgFault // in plan order; a plan holds a handful, so sends scan it
	checksums bool        // any corrupt fault present
}

type msgFault struct {
	key       msgKey
	kind      FaultKind
	delay     machine.Time
	remaining int
}

// newFaultState compiles a plan; nil plans yield a state that never
// fires.
func newFaultState(p *FaultPlan) *faultState {
	st := &faultState{crashes: map[int]int{}}
	if p == nil {
		return st
	}
	for _, f := range p.Faults {
		if f.Kind == FaultCrash {
			st.crashes[f.PE] = f.Slot
			continue
		}
		n := f.Count
		if n <= 0 {
			n = 1
		}
		st.msgFaults = append(st.msgFaults, &msgFault{key: msgKey{f.From, f.To, f.Var}, kind: f.Kind, delay: f.Delay, remaining: n})
		if f.Kind == FaultCorrupt {
			st.checksums = true
		}
	}
	return st
}

// crashNow reports whether processor pe must crash before executing its
// executed-th task.
func (st *faultState) crashNow(pe, executed int) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	slot, ok := st.crashes[pe]
	if ok && executed == slot {
		delete(st.crashes, pe)
		return true
	}
	return false
}

// onSend returns the faults to apply to this transmission of k, in
// plan order, consuming their counts.
func (st *faultState) onSend(k *msgKey) []FaultKind {
	if len(st.msgFaults) == 0 {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	var kinds []FaultKind
	for _, f := range st.msgFaults {
		if f.key == *k && f.remaining > 0 {
			f.remaining--
			kinds = append(kinds, f.kind)
		}
	}
	return kinds
}

// delayOf returns the configured delay for k's delay fault (0 if none).
func (st *faultState) delayOf(k *msgKey) machine.Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, f := range st.msgFaults {
		if f.key == *k && f.kind == FaultDelay {
			return f.delay
		}
	}
	return 0
}

// corruptValue returns a value that is definitely different from v (the
// transit bit-flip FaultCorrupt simulates).
func corruptValue(v pits.Value) pits.Value {
	switch x := v.(type) {
	case pits.Num:
		return pits.Num(float64(x) + 1)
	case pits.BoolV:
		return pits.BoolV(!bool(x))
	case pits.StrV:
		return pits.StrV(string(x) + "\x00")
	case pits.Vec:
		nv := append(pits.Vec(nil), x...)
		if len(nv) == 0 {
			return pits.Vec{1}
		}
		nv[0]++
		return nv
	default:
		return pits.StrV("corrupted")
	}
}
