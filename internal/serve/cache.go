// Package serve is the scheduling-as-a-service control plane: a
// long-running HTTP/JSON server that accepts design + machine
// submissions, schedules them through the core heuristics, executes
// them — in-process or on a shared elastic worker fleet — and reports
// results, with admission control, per-tenant fairness and a schedule
// cache that amortizes construction across same-shape requests.
package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/sched"
)

// cacheEntry is a reusable compiled submission: the flattened design
// and its finalized schedule. Both are immutable after Finalize, as is
// the compiled era the runner hangs off the schedule, so concurrent
// cache-hit runs share them freely; only the input values differ per
// request.
type cacheEntry struct {
	flat *graph.Flat
	sc   *sched.Schedule
}

// scheduleCache is an LRU map from sched.Fingerprint keys to compiled
// submissions. Hits and misses are counted for /stats; the capacity
// bounds live entries. An entry keeps its request's machine alive too,
// but nothing sized by processor pairs: a topology read from a document
// is interned, so all entries naming ring:128 share its routing tables,
// which the schedulers' communication costs read too, and a schedule's
// index keeps no P×P matrix.
// Nor does it keep a flattening of its own: the flat graph owns its
// task nodes and id index and shares the rest with its design's
// interned shape (project.Flatten). That is about 0.23 MB per entry for
// a 501-task design on ring:128 (0.44 MB with a private flattening,
// 0.79 MB while each machine also held its own communication table and
// each index a traffic matrix). Its first run parks the runner's
// compiled era on the schedule, another 0.26 MB (a prediction never
// does), so the default cap of 128 is ~29 MB of schedules that were
// only predicted and ~62 MB of ones that all ran.
type scheduleCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cachePair
	byKey map[string]*list.Element

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cachePair struct {
	key   string
	entry cacheEntry
}

// newScheduleCache builds a cache holding at most cap entries; cap <=
// 0 disables caching entirely (every lookup misses, nothing is kept).
func newScheduleCache(cap int) *scheduleCache {
	return &scheduleCache{cap: cap, order: list.New(), byKey: map[string]*list.Element{}}
}

// get returns the cached compiled submission and bumps its recency.
func (c *scheduleCache) get(key string) (cacheEntry, bool) {
	if c.cap <= 0 {
		c.misses.Add(1)
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return cacheEntry{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*cachePair).entry, true
}

// put inserts a compiled submission, evicting the least recently used
// entry when over capacity. Racing inserts of the same key keep the
// first; the duplicates' work is simply discarded.
func (c *scheduleCache) put(key string, e cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cachePair{key: key, entry: e})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cachePair).key)
		c.evictions.Add(1)
	}
}

// len reports the live entry count.
func (c *scheduleCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is the cache section of the /stats document.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Cap       int   `json:"cap"`
}

func (c *scheduleCache) stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.len(),
		Cap:       c.cap,
	}
}
