package conform

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// ChurnOp is one fleet change fired against a distributed engine
// mid-run: a worker joining through the fleet's control plane,
// or a graceful drain of one original worker. Ops are best-effort by
// construction — a conform run may finish before the op's offset, and
// a run rightly rejects fleet changes once it is finishing —
// so the oracle is not "the op landed" but "outputs are byte-identical
// whether or not it did".
type ChurnOp struct {
	AtMS   int    // wall-clock offset from run start, in milliseconds
	Op     string // "join" or "drain"
	Worker int    // drain target, modulo the fleet size
}

func (o ChurnOp) String() string {
	if o.Op == "drain" {
		return fmt.Sprintf("drain:%d@%d", o.Worker, o.AtMS)
	}
	return fmt.Sprintf("%s@%d", o.Op, o.AtMS)
}

// ChurnString renders a churn script as its comma-separated spec, the
// inverse of ParseChurn.
func ChurnString(ops []ChurnOp) string {
	parts := make([]string, len(ops))
	for i, o := range ops {
		parts[i] = o.String()
	}
	return strings.Join(parts, ",")
}

// ParseChurn parses a churn spec: comma-separated "join@MS" and
// "drain:WORKER@MS" ops, e.g. "join@5,drain:1@12".
func ParseChurn(s string) ([]ChurnOp, error) {
	var ops []ChurnOp
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		head, at, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("conform: churn op %q has no @MS offset", part)
		}
		ms, err := strconv.Atoi(at)
		if err != nil || ms < 0 {
			return nil, fmt.Errorf("conform: churn op %q has bad offset %q", part, at)
		}
		op := ChurnOp{AtMS: ms}
		switch {
		case head == "join":
			op.Op = "join"
		case strings.HasPrefix(head, "drain:"):
			w, err := strconv.Atoi(head[len("drain:"):])
			if err != nil || w < 0 {
				return nil, fmt.Errorf("conform: churn op %q has bad worker index", part)
			}
			op.Op, op.Worker = "drain", w
		default:
			return nil, fmt.Errorf("conform: unknown churn op %q", part)
		}
		ops = append(ops, op)
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("conform: empty churn spec %q", s)
	}
	return ops, nil
}

// churnNeedsJoin reports whether any op wants a spare worker to offer.
func churnNeedsJoin(ops []ChurnOp) bool {
	for _, o := range ops {
		if o.Op == "join" {
			return true
		}
	}
	return false
}

// drawChurn draws a churn script: a lone drain, a lone join, or a join
// followed by a drain — the elastic replace move.
func drawChurn(rng *rand.Rand, workers int) []ChurnOp {
	switch rng.Intn(3) {
	case 0:
		return []ChurnOp{{Op: "drain", Worker: rng.Intn(workers), AtMS: 1 + rng.Intn(20)}}
	case 1:
		return []ChurnOp{{Op: "join", AtMS: 1 + rng.Intn(20)}}
	default:
		at := 1 + rng.Intn(15)
		return []ChurnOp{
			{Op: "join", AtMS: at},
			{Op: "drain", Worker: rng.Intn(workers), AtMS: at + 1 + rng.Intn(10)},
		}
	}
}

// applyChurn fires the ops at their offsets against the fleet control
// listener at control; the fleet may host many runs at once. A join
// announces joiner and keeps re-announcing it until ctx ends, as
// `banger worker -join` does: the fleet records the member at once, and
// every announce offers it to the runs in flight, which take it in only
// once a crash or departure frees processors. A drain names
// members[op.Worker % len(members)] by address, so "worker 1" always
// means the second original member. Drain rejections are ultimately
// swallowed: "run is finishing" means the op raced the run's natural
// completion, which is a legitimate interleaving the outputs oracle
// must survive, not a harness failure. A rejection that asks for a
// retry — a replan in flight — is retried briefly so a drain scheduled
// inside the run's window usually lands.
func applyChurn(ctx context.Context, tr wire.Transport, control, joiner string, ops []ChurnOp, members []string) {
	start := time.Now()
	for _, op := range ops {
		select {
		case <-time.After(time.Duration(op.AtMS)*time.Millisecond - time.Since(start)):
		case <-ctx.Done():
			return
		}
		if op.Op == "join" {
			go wire.AnnounceLoop(ctx, tr, control, joiner, 10*time.Millisecond, nil)
			continue
		}
		for attempt := 0; attempt < 40 && ctx.Err() == nil; attempt++ {
			octx, cancel := context.WithTimeout(ctx, time.Second)
			err := wire.Drain(octx, tr, control, -1, members[op.Worker%len(members)])
			cancel()
			if err == nil || !strings.Contains(err.Error(), "retry") {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
