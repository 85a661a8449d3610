package wire

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"time"
)

// errRunEnded says a forwarded fleet change found its run over. With
// exec's drain sentinels it means "this run does not involve the
// worker", which a fleet-wide drain skips over; match with errors.Is.
var errRunEnded = errors.New("run ended before the fleet change completed")

// readControl reads the one request a fresh control connection carries,
// a join announce or a drain order, and returns its note. The first
// frame must arrive promptly: a stuck dialer must not hold the
// connection past the run, or wedge an accept path. A connection that
// sends nothing readable, or something malformed, is answered and
// closed here, and both results are nil.
func readControl(c Conn) (*JoinNote, *DrainNote) {
	guard := time.AfterFunc(10*time.Second, func() { c.Close() })
	f, err := c.ReadFrame()
	guard.Stop()
	switch {
	case err != nil:
		c.Close()
	case f.Type == TJoin:
		if n, err := decJSON[JoinNote](f.Payload, "join"); err == nil && n.Addr != "" {
			return &n, nil
		}
		rejectConn(c, "bad join request: missing worker address")
	case f.Type == TDrain:
		if n, err := decJSON[DrainNote](f.Payload, "drain"); err == nil {
			return nil, &n
		}
		rejectConn(c, "bad drain request")
	default:
		rejectConn(c, fmt.Sprintf("unexpected %s frame on a control connection", f.Type))
	}
	return nil, nil
}

// answerControl closes a control connection with the request's verdict:
// Welcome when err is nil, else an Error naming the reason.
func answerControl(c Conn, err error) {
	if err != nil {
		rejectConn(c, err.Error())
		return
	}
	c.WriteFrame(Frame{Type: TWelcome, Payload: encJSON(Welcome{Proto: ProtoVersion})})
	c.Close()
}

// controlRequest opens a fresh connection to a fleet's control
// listener, sends one request frame, and waits for the verdict: a
// Welcome (accepted) or an Error naming the reason.
func controlRequest(ctx context.Context, tr Transport, control string, f Frame) error {
	c, err := tr.Dial(ctx, control)
	if err != nil {
		return fmt.Errorf("wire: dialing control %s: %w", control, err)
	}
	defer c.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			c.Close()
		case <-done:
		}
	}()
	if err := c.WriteFrame(f); err != nil {
		return fmt.Errorf("wire: control request: %w", err)
	}
	reply, err := c.ReadFrame()
	if err != nil {
		return fmt.Errorf("wire: control reply: %w", err)
	}
	switch reply.Type {
	case TWelcome:
		return nil
	case TError:
		note, _ := decJSON[ErrorNote](reply.Payload, "error")
		return fmt.Errorf("%s", note.Msg)
	default:
		return fmt.Errorf("wire: unexpected %s reply on the control connection", reply.Type)
	}
}

// Drain asks the fleet whose control listener is at control to
// gracefully evacuate a member: by its listen address, or when addr is
// empty by its index in the fleet's sorted Members. It returns nil once
// the worker has left every run it served with all its state handed
// over, or the fleet's rejection reason.
func Drain(ctx context.Context, tr Transport, control string, worker int, addr string) error {
	return controlRequest(ctx, tr, control,
		Frame{Type: TDrain, Payload: encJSON(DrainNote{Worker: worker, Addr: addr})})
}

// Announce offers the worker daemon listening at addr to the fleet
// whose control listener is at control. It returns nil once the fleet
// has recorded the member, or the rejection reason; whether a run in
// flight takes the worker in is that run's decision, made at its next
// barrier, and every re-announce offers it again.
func Announce(ctx context.Context, tr Transport, control, addr string) error {
	return controlRequest(ctx, tr, control,
		Frame{Type: TJoin, Payload: encJSON(JoinNote{Addr: addr})})
}

// AnnounceLoop re-announces addr to control every period until ctx
// ends. Failures are expected steady-state noise — no fleet up yet, one
// shutting down — so the loop logs only transitions. Announcing while
// already a member is an idempotent no-op that re-offers the worker to
// the runs in flight, and a drained worker's next announce is how it
// re-enters the fleet.
func AnnounceLoop(ctx context.Context, tr Transport, control, addr string, every time.Duration) {
	lastErr := ""
	for {
		actx, cancel := context.WithTimeout(ctx, every)
		err := Announce(actx, tr, control, addr)
		cancel()
		switch {
		case err == nil:
			if lastErr != "" {
				slog.Info("announce accepted", "control", control, "addr", addr)
			}
			lastErr = ""
		case err.Error() != lastErr:
			slog.Warn("announce failed", "control", control, "addr", addr, "err", err)
			lastErr = err.Error()
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(every):
		}
	}
}
