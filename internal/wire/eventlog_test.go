package wire

import (
	"context"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/trace"
)

// This file tests the run's event log as it crosses a fleet: a daemon
// encodes its session's partial and hands the session's log back to the
// schedule's era for its next run, and the coordinator decodes each
// member's events straight into the run's log.

// holding names the field path by which a value of type t can hold a
// value of one of types, looking into this package's own types only; ""
// if there is none.
func holding(t reflect.Type, path string, types []reflect.Type, seen map[reflect.Type]bool) string {
	if slices.Contains(types, t) {
		return path
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan, reflect.Map:
		return holding(t.Elem(), path, types, seen)
	case reflect.Struct:
		if t.Name() != "" && t.PkgPath() != reflect.TypeOf(workerRun{}).PkgPath() {
			return ""
		}
		for i := 0; i < t.NumField(); i++ {
			if p := holding(t.Field(i).Type, path+"."+t.Field(i).Name, types, seen); p != "" {
				return p
			}
		}
	}
	return ""
}

// spareLogs lists the data pointers of the logs the era of the one
// schedule daemon d holds keeps for its next sessions.
func spareLogs(t *testing.T, d *workerDaemon) []uintptr {
	t.Helper()
	held := heldBy(d)
	if len(held) != 1 {
		t.Fatalf("daemon holds %d schedules, want 1", len(held))
	}
	var ptrs []uintptr
	for _, h := range held {
		spare := reflect.ValueOf(h.s.Derived()).Elem().FieldByName("spare")
		for i := 0; i < spare.Len(); i++ {
			ptrs = append(ptrs, spare.Index(i).Pointer())
		}
	}
	return ptrs
}

// TestDaemonKeepsNoReleasedPartial: a hosted run's state has no place
// for a partial — the session's outcome reaches the run loop encoded —
// and the daemon releases the session's log as soon as it is encoded:
// after each run, each daemon's era of the schedule keeps one spare log,
// the same array every time, which the next run took and gave back.
func TestDaemonKeepsNoReleasedPartial(t *testing.T) {
	types := []reflect.Type{reflect.TypeOf((*exec.Partial)(nil)), reflect.TypeOf([]trace.Event(nil))}
	if path := holding(reflect.TypeOf(workerRun{}), "workerRun", types, map[reflect.Type]bool{}); path != "" {
		t.Errorf("a hosted run can hold a partial's events: %s", path)
	}
	tr := Inproc()
	ds, _ := startDaemons(t, tr, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	var first [][]uintptr
	for run := 0; run < 4; run++ {
		if _, err := f.Run(context.Background(), runner, sc, flat); err != nil {
			t.Fatal(err)
		}
		waitNoWorkerRuns(t, 5*time.Second)
		for i, d := range ds {
			logs := spareLogs(t, d)
			if run == 0 {
				first = append(first, logs)
			}
			if len(logs) != 1 || !slices.Equal(logs, first[i]) {
				t.Errorf("run %d: daemon %d keeps spare logs %x, want the one it released after run 0 (%x)", run, i, logs, first[i])
			}
		}
	}
}

// TestConcurrentRunsNeverShareALog: waves of concurrent runs of one
// schedule on one daemon pair, so that each daemon hosts several sessions
// of it at once, each on a released log or a new one: every run's
// virtual-time events are the solo run's. Runs of one schedule log the
// same events at the same places, so two sessions sharing a log would
// not show here in the events: they show as a data race, and `make
// chaos` runs this under the race detector.
func TestConcurrentRunsNeverShareALog(t *testing.T) {
	tr := Inproc()
	startDaemons(t, tr, "w0", "w1")
	f := startFleet(t, tr, []string{"w0", "w1"})
	sc, flat, runner := warmDesign(t)
	ctx := context.Background()
	solo, err := f.Run(ctx, runner, sc, flat)
	if err != nil {
		t.Fatal(err)
	}
	want := runEvents(solo)
	const waves, perWave = 5, 4
	for w := 0; w < waves; w++ {
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			go func() {
				res, err := f.Run(ctx, runner, sc, flat)
				if err == nil && !reflect.DeepEqual(runEvents(res), want) {
					err = fmt.Errorf("a run logged events other than the solo run's")
				}
				errs <- err
			}()
		}
		for i := 0; i < perWave; i++ {
			if err := <-errs; err != nil {
				t.Errorf("wave %d: %v", w, err)
			}
		}
	}
}

// doctorResults is a transport whose connection to addr hands the
// coordinator each result frame with its events blob rewritten by cut.
type doctorResults struct {
	Transport
	addr string
	cut  func([]byte) []byte
}

func (t doctorResults) Dial(ctx context.Context, addr string) (Conn, error) {
	c, err := t.Transport.Dial(ctx, addr)
	if err != nil || addr != t.addr {
		return c, err
	}
	return doctoredConn{c, t.cut}, nil
}

type doctoredConn struct {
	Conn
	cut func([]byte) []byte
}

func (c doctoredConn) ReadFrame() (Frame, error) {
	f, err := c.Conn.ReadFrame()
	if err == nil && f.Type == TResult {
		if js, blobs, derr := decBlobEnvelope(f.Payload); derr == nil && len(blobs) == 2 {
			f.Payload = encBlobEnvelope(js, blobs[0], c.cut(blobs[1]))
		}
	}
	return f, err
}

// TestMalformedResultEventsFailTheRun: a result whose events blob is cut
// short passes the count check on arrival and fails when it is decoded
// into the run's log; one whose count the bytes cannot hold fails on
// arrival. Either way the run fails, naming the worker.
func TestMalformedResultEventsFailTheRun(t *testing.T) {
	for name, c := range map[string]struct {
		cut  func([]byte) []byte
		want string
	}{
		"cut short": {func(b []byte) []byte { return b[:len(b)-3] }, "truncated"},
		"count past its bytes": {func(b []byte) []byte {
			_, k := binary.Uvarint(b)
			return append(binary.AppendUvarint(nil, uint64(len(b))), b[k:]...)
		}, "event count does not fit"},
	} {
		t.Run(name, func(t *testing.T) {
			tr := Inproc()
			addrs, stop := startWorkers(t, tr, 2)
			defer stop()
			sc, flat, runner := warmDesign(t)
			co := &Coordinator{Transport: doctorResults{tr, addrs[1], c.cut}, Addrs: addrs, Runner: runner,
				HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 2 * time.Second}
			_, err := co.Run(context.Background(), sc, flat)
			if err == nil || !strings.Contains(err.Error(), "wire: worker 1 result: wire: ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("run with worker 1's result events %s: err %v, want worker 1's result %s", name, err, c.want)
			}
		})
	}
}
