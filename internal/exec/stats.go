package exec

import "sync/atomic"

// Stats counts runtime events of one execution session. Every counter
// is an atomic: worker goroutines, the retry goroutines and the
// recovery coordinator all increment concurrently, so plain int64
// fields would be a data race (the regression test in stats_test.go
// pins this under the race detector).
type Stats struct {
	// TasksRun counts executed task copies (primaries and duplicates,
	// across recovery eras).
	TasksRun atomic.Int64
	// MsgsSent counts logical message transmissions (one per scheduled
	// delivery, regardless of injected drops or duplicate copies).
	MsgsSent atomic.Int64
	// MsgsRecv counts messages consumed by a task (duplicate and
	// stale-era copies are absorbed without counting).
	MsgsRecv atomic.Int64
	// Retries counts retransmissions by the reliable transport.
	Retries atomic.Int64
	// FaultsInjected counts faults the chaos harness applied.
	FaultsInjected atomic.Int64
	// Recoveries counts completed crash-recovery replans.
	Recoveries atomic.Int64
	// RemoteSends counts deliveries handed to the remote plane
	// (distributed runs only; includes injected duplicate copies).
	RemoteSends atomic.Int64
	// RemoteFlushes counts the bursts that handed the remote plane at
	// least one message — slots, era-start re-sends, delayed and
	// retried deliveries — each ended by one FlushRemote (distributed
	// runs only). RemoteSends/RemoteFlushes is the achieved batching
	// factor.
	RemoteFlushes atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats at one instant.
type StatsSnapshot struct {
	TasksRun       int64
	MsgsSent       int64
	MsgsRecv       int64
	Retries        int64
	FaultsInjected int64
	Recoveries     int64
	RemoteSends    int64
	RemoteFlushes  int64
}

// Snapshot reads every counter atomically (individually; the snapshot
// as a whole is not a consistent cut, which is fine for reporting).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		TasksRun:       s.TasksRun.Load(),
		MsgsSent:       s.MsgsSent.Load(),
		MsgsRecv:       s.MsgsRecv.Load(),
		Retries:        s.Retries.Load(),
		FaultsInjected: s.FaultsInjected.Load(),
		Recoveries:     s.Recoveries.Load(),
		RemoteSends:    s.RemoteSends.Load(),
		RemoteFlushes:  s.RemoteFlushes.Load(),
	}
}
