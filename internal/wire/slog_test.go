package wire

import (
	"context"
	"log"
	"log/slog"
	"sync"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sched"
)

// logRecord is one slog record a test captured: its level, message and
// attributes by key.
type logRecord struct {
	Level slog.Level
	Msg   string
	Attrs map[string]slog.Value
}

// err is the record's "err" attribute, or nil.
func (r logRecord) err() error {
	e, _ := r.Attrs["err"].Any().(error)
	return e
}

// logCapture is a slog.Handler that keeps every record and shows each
// to see. The package logs through the default logger with no groups or
// derived loggers, so WithAttrs and WithGroup return it as it is.
type logCapture struct {
	mu   sync.Mutex
	recs []logRecord
	see  func(logRecord)
}

// captureLog makes a logCapture the default slog handler for the rest
// of the test. No test of this package runs in parallel, so the default
// is the test's own; the previous one, and the log package's output it
// replaced, come back at cleanup.
func captureLog(t *testing.T, see func(logRecord)) *logCapture {
	h := &logCapture{see: see}
	old, w, flags := slog.Default(), log.Writer(), log.Flags()
	slog.SetDefault(slog.New(h))
	t.Cleanup(func() {
		slog.SetDefault(old)
		log.SetOutput(w)
		log.SetFlags(flags)
	})
	return h
}

func (h *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *logCapture) WithGroup(string) slog.Handler            { return h }

func (h *logCapture) Handle(_ context.Context, r slog.Record) error {
	rec := logRecord{Level: r.Level, Msg: r.Message, Attrs: map[string]slog.Value{}}
	r.Attrs(func(a slog.Attr) bool {
		rec.Attrs[a.Key] = a.Value
		return true
	})
	h.mu.Lock()
	h.recs = append(h.recs, rec)
	h.mu.Unlock()
	if h.see != nil {
		h.see(rec)
	}
	return nil
}

// records returns the records captured so far.
func (h *logCapture) records() []logRecord {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]logRecord(nil), h.recs...)
}

// TestFaultFreeFleetLogsNothingAboveDebug: a fleet's fault-free life —
// daemons started, runs over their mesh links, fleet and daemons shut
// down — is Debug records only, so an embedder that installs no handler
// sees nothing of it.
func TestFaultFreeFleetLogsNothingAboveDebug(t *testing.T) {
	logged := captureLog(t, nil)
	tr := Inproc()
	addrs, stop := startWorkers(t, tr, 2)
	f := &Fleet{Transport: tr, Control: "fleet-control", Seed: addrs,
		HeartbeatEvery: 50 * time.Millisecond, PeerTimeout: 2 * time.Second}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	flat, inputs := distDesign(t, 6, 3)
	sc, err := sched.ETF{}.Schedule(flat.Graph, distMachine(t, "hypercube:2"))
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		if _, err := f.Run(context.Background(), &exec.Runner{Inputs: inputs}, sc, flat); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
	stop()
	waitNoWorkerRuns(t, 5*time.Second)
	started := 0
	for _, r := range logged.records() {
		if r.Level >= slog.LevelInfo {
			t.Errorf("a fault-free fleet logged at %v: %s %v", r.Level, r.Msg, r.Attrs)
		}
		if r.Msg == "run started" {
			started++
		}
	}
	if started != 2*20 {
		t.Errorf("%d run-started records for 20 runs on 2 daemons, want 40", started)
	}
}
