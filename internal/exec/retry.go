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
// deliveries with optional acknowledge-and-retransmit reliability
// (capped exponential backoff), so dropped and duplicated messages are
// absorbed instead of wedging the run.

// xmsg carries one arc's data between processor goroutines. ord is the
// message's ordinal on the receiving processor in its era's plan; a
// message that crossed a process boundary arrives with name instead,
// which the receiver resolves to ord when it admits the message.
type xmsg struct {
	ord    int32
	name   *msgKey
	val    pits.Value
	fromPE int
	at     machine.Time  // virtual arrival (VirtualTime mode)
	seq    uint64        // unique per logical transmission; duplicates share it
	epoch  int64         // era the message belongs to; stale eras are discarded
	sum    uint64        // payload checksum (0 = unchecked)
	ack    chan struct{} // receiver acknowledges here (reliable mode only)
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

// ackMsg acknowledges receipt; retransmission stops. Safe on messages
// without an ack channel and on repeated calls.
func ackMsg(m xmsg) {
	if m.ack == nil {
		return
	}
	select {
	case m.ack <- struct{}{}:
	default:
	}
}

// mailbox is one hosted processor's inbox: an unbounded FIFO, so a put
// never blocks whatever retries, duplicates and recoveries pile into it.
// ready holds at most one wake-up token; a put leaves one for a consumer
// that found the queue empty, and a stale token costs one empty take.
//
// waiting is the owner's blocked flag: set by the take that finds the
// queue empty (the owner is about to block on ready), cleared by the put
// that will wake it. It moves only under mu, and the session's busy
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

func (b *mailbox) put(m xmsg) {
	b.mu.Lock()
	b.q = append(b.q, m)
	b.rouseLocked()
	b.mu.Unlock()
	select {
	case b.ready <- struct{}{}:
	default:
	}
}

// rouse counts a waiting owner busy again without a message: the
// recovery barrier, not a put, ended its wait.
func (b *mailbox) rouse() {
	b.mu.Lock()
	b.rouseLocked()
	b.mu.Unlock()
}

func (b *mailbox) rouseLocked() {
	if b.waiting {
		b.waiting = false
		b.busy.Add(1)
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

// sendReliable ships m to toPE with retransmission: deliver copies
// (possibly 0 — an injected drop), wait for the ack with exponential
// backoff, and retransmit the original payload until acknowledged or
// the run ends. orig is the uncorrupted payload; retransmissions use it
// so a corrupted or dropped first copy heals. Runs in a background
// goroutine so the sending worker never blocks on a slow consumer.
func (c *controller) sendReliable(m xmsg, k *msgKey, orig pits.Value, toPE, copies int, wallDelay time.Duration) {
	c.later(wallDelay, func() {
		wait := c.runner.retryBase()
		cap := c.runner.retryCap()
		attempt := 0
		for {
			for i := 0; i < copies; i++ {
				if !c.deliver(m, toPE) {
					return
				}
			}
			t := time.NewTimer(wait)
			select {
			case <-m.ack:
				t.Stop()
				return
			case <-c.done:
				t.Stop()
				return
			case <-c.finish:
				t.Stop()
				return
			case <-t.C:
			}
			if c.era.Load().epoch != m.epoch {
				// The world changed under this message: recovery
				// replanned the run and the receiver would discard it.
				return
			}
			attempt++
			copies = 1
			m.val = orig
			if m.sum != 0 {
				m.sum = checksum(orig)
			}
			c.addEvent(trace.Event{Kind: trace.MsgRetry, At: c.stamp(m.at), Task: k.from,
				PE: m.fromPE, Var: k.v, Peer: toPE, Seq: m.seq, Note: fmt.Sprintf("attempt %d", attempt)})
			c.stats.Retries.Add(1)
			wait *= 2
			if wait > cap {
				wait = cap
			}
		}
	})
}
