package exec

import (
	"sync"

	"repro/internal/trace"
)

// Stats accumulates the counts of finished runs. A run is added once,
// by the Lifecycle when it makes the run's log (see runCounts); nothing
// on a worker's path touches it, so the many runs of a server can share
// one.
type Stats struct {
	mu sync.Mutex
	s  StatsSnapshot
}

// StatsSnapshot is the counts of one run, or a sum of them.
type StatsSnapshot struct {
	// TasksRun counts task ends: primaries and duplicates, across
	// recovery eras.
	TasksRun int64
	// MsgsSent counts logical message sends (one per scheduled delivery,
	// regardless of injected drops or duplicate copies).
	MsgsSent int64
	// MsgsRecv counts messages consumed by a task (duplicate and
	// stale-era copies are absorbed without counting).
	MsgsRecv int64
	// Retries counts resent copies: with Retry on, one per copy the
	// fault plan dropped or corrupted.
	Retries int64
	// FaultsInjected counts faults the chaos harness applied.
	FaultsInjected int64
	// Recoveries counts completed crash-recovery replans.
	Recoveries int64
	// RemoteSends counts deliveries the run's sessions handed the
	// remote plane (distributed runs only; includes injected duplicate
	// copies).
	RemoteSends int64
	// RemoteFlushes counts the bursts that handed the remote plane at
	// least one message — slots, era-start re-sends, delayed and
	// retried deliveries — each ended by one FlushRemote (distributed
	// runs only). RemoteSends/RemoteFlushes is the achieved batching
	// factor.
	RemoteFlushes int64
}

// Snapshot returns the sums so far.
func (s *Stats) Snapshot() StatsSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.s
}

// Add adds one run's counts.
func (s *Stats) Add(d StatsSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.s.TasksRun += d.TasksRun
	s.s.MsgsSent += d.MsgsSent
	s.s.MsgsRecv += d.MsgsRecv
	s.s.Retries += d.Retries
	s.s.FaultsInjected += d.FaultsInjected
	s.s.Recoveries += d.Recoveries
	s.s.RemoteSends += d.RemoteSends
	s.s.RemoteFlushes += d.RemoteFlushes
}

// runCounts is what a run adds to its Runner's Stats: the fold of its
// log, the recoveries its lifecycle committed and the plane counts its
// sessions' partials carry.
func runCounts(events []trace.Event, recoveries int64, parts []*Partial) StatsSnapshot {
	c := trace.Count(events)
	st := StatsSnapshot{TasksRun: int64(c.TasksRun + c.DupsRun), MsgsSent: int64(c.Msgs),
		MsgsRecv: int64(c.MsgsRecv), Retries: int64(c.Retries), FaultsInjected: int64(c.Faults),
		Recoveries: recoveries}
	for _, p := range parts {
		st.RemoteSends += p.RemoteSends
		st.RemoteFlushes += p.RemoteFlushes
	}
	return st
}
