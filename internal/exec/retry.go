package exec

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/pits"
	"repro/internal/trace"
)

// This file is the message transport: sequence-numbered, checksummed
// deliveries, and the one retransmission rule — a copy the fault plan
// dropped or corrupted is resent once, at the send — so injected drops,
// duplicates and corruptions are absorbed instead of wedging the run.

// xmsg carries one arc's data between processor goroutines. ord is the
// message's ordinal on the receiving processor in its era's plan; a
// message that crossed a process boundary arrives with name instead,
// which the receiver resolves to ord when it admits the message.
type xmsg struct {
	ord    int32
	name   *msgKey
	val    pits.Value
	fromPE int
	at     machine.Time // virtual arrival (VirtualTime mode)
	seq    uint64       // unique per logical transmission; duplicates share it
	epoch  int64        // era the message belongs to; stale eras are discarded
	sum    uint64       // payload checksum (0 = unchecked)
}

// checksum fingerprints a payload so in-transit corruption is
// detectable at the receiver.
func checksum(v pits.Value) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v.TypeName()))
	h.Write([]byte{'|'})
	h.Write([]byte(v.String()))
	s := h.Sum64()
	if s == 0 {
		return 1 // 0 means "unchecked"
	}
	return s
}

// mailbox is one hosted processor's inbox: an unbounded FIFO, so a put
// never blocks whatever retries, duplicates and recoveries pile into it.
// ready holds at most one wake-up token, and the owner's one wait is on
// it; a put or a rouse leaves one, and a stale token costs the owner one
// look at its inbox and the run's state.
//
// waiting is the owner's blocked flag: set by the take that finds the
// queue empty (the owner is about to block on ready), cleared by the put
// or rouse that will wake it. It moves only under mu, and the session's busy
// count (see controller.busy) moves with it, so the count never shows a
// processor blocked that has a message to read.
type mailbox struct {
	mu      sync.Mutex
	q       []xmsg
	head    int // q[:head] is consumed and zeroed
	ready   chan struct{}
	waiting bool
	busy    *atomic.Int64
}

func newMailbox(busy *atomic.Int64) *mailbox {
	return &mailbox{ready: make(chan struct{}, 1), busy: busy}
}

func (b *mailbox) put(m xmsg) { b.wake(&m) }

// rouse wakes the owner without a message: the barrier, the next era or
// the run's end, not a put, ends its wait.
func (b *mailbox) rouse() { b.wake(nil) }

// wake queues m, if there is one, counts a waiting owner busy again and
// leaves it a wake-up token.
func (b *mailbox) wake(m *xmsg) {
	b.mu.Lock()
	if m != nil {
		b.q = append(b.q, *m)
	}
	if b.waiting {
		b.waiting = false
		b.busy.Add(1)
	}
	b.mu.Unlock()
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// take pops the oldest message. The popped slot is zeroed, so the
// mailbox pins no payload it has handed over, and a drained queue
// rewinds to the start of its backing array instead of growing. On an
// empty queue the owner is marked waiting and leaves the busy count;
// last reports that nothing busy is left behind it.
func (b *mailbox) take() (m xmsg, ok, last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head == len(b.q) {
		if !b.waiting {
			b.waiting = true
			last = b.busy.Add(-1) == 0
		}
		return xmsg{}, false, last
	}
	m = b.q[b.head]
	b.q[b.head] = xmsg{}
	if b.head++; b.head == len(b.q) {
		b.q, b.head = b.q[:0], 0
	}
	return m, true, false
}

// deliver enqueues one copy for hosted processor toPE and never blocks.
// It reports false once the run has aborted; a copy arriving after a
// clean finish is dropped.
func (c *controller) deliver(m xmsg, toPE int) bool {
	if end := c.ended.Load(); end != 0 {
		return end == endFinished
	}
	c.workers[toPE].inbox.put(m)
	return true
}

// transmit hands one send's copies to toPE's plane — its mailbox when
// this session hosts it, the remote plane otherwise: the copies the
// fault plan left (none for a drop, two for a duplicate) and then, when
// resend is set, the uncorrupted original once more, logged as the
// send's one MsgRetry. That is the runtime's one retransmission rule:
// decided at the send from the fault plan and never timed, so how many
// retries a trace holds depends on the plan alone. A wall-clock delay
// fault holds the copies back by wallDelay without blocking the sender.
// Held copies bound for another process flush themselves, and are
// skipped once their era's barrier has formed or the run has finished:
// the receiver would discard a replaced era's copy, and the replan
// re-sends what the next era needs. handed counts the copies the remote
// plane now holds, which the sender's burst owes a flush.
func (c *controller) transmit(m xmsg, k *msgKey, orig pits.Value, toPE, copies int, resend bool, wallDelay time.Duration) (handed int, err error) {
	if copies == 0 && !resend {
		// Dropped for good: the receiver waits for it until the run's
		// lifecycle calls the deadlock.
		return 0, nil
	}
	local := c.isLocal(toPE)
	if wallDelay == 0 {
		return c.put(m, k, orig, toPE, copies, resend, local)
	}
	er := c.era.Load()
	c.later(wallDelay, func() {
		if local {
			// A receiver here discards a replaced era's copy itself, and
			// only an abort, which takes every copy with it, fails a put.
			_, _ = c.put(m, k, orig, toPE, copies, resend, true)
			return
		}
		if c.moot(er) {
			return
		}
		if _, err := c.put(m, k, orig, toPE, copies, resend, false); err == nil {
			c.plane.FlushRemote() // a burst of its own, outside any slot's sends
			c.mu.Lock()
			c.lateFlushes++
			c.mu.Unlock()
		} else if !c.moot(er) {
			// Once moot, the failure is not the run's: the peer may
			// rightly have dropped its link to a process whose
			// processors the replan gave up.
			c.fail(fmt.Errorf("exec: %w", err))
		}
	})
	return 0, nil
}

// put makes now the copies transmit decided on. The copies it hands the
// remote plane are counted before the sender leaves the busy count (see
// controller.report).
func (c *controller) put(m xmsg, k *msgKey, orig pits.Value, toPE, copies int, resend, local bool) (handed int, err error) {
	n := copies
	if resend {
		n++
	}
	for i := 0; i < n && err == nil; i++ {
		if i == copies {
			m.val = orig
			c.addEvent(trace.Event{Kind: trace.MsgRetry, At: c.stamp(m.at), Task: k.from,
				PE: m.fromPE, Var: k.v, Peer: toPE, Seq: m.seq, Note: "attempt 1"})
		}
		if local {
			if !c.deliver(m, toPE) {
				return 0, fmt.Errorf("%w while sending to PE %d", errAborted, toPE)
			}
			continue
		}
		handed++
		if err = c.plane.DeliverRemote(RemoteMsg{From: k.from, To: k.to, Var: k.v, FromPE: m.fromPE, ToPE: toPE,
			Seq: m.seq, Epoch: m.epoch, At: m.at, Sum: m.sum, Val: m.val}); err != nil {
			err = fmt.Errorf("remote delivery to PE %d: %w", toPE, err)
		}
	}
	if handed > 0 {
		c.mu.Lock()
		c.sends += int64(handed)
		if m.epoch == c.epoch {
			c.sent += int64(handed)
		}
		c.mu.Unlock()
	}
	return handed, err
}
