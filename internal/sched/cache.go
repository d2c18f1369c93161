package sched

import (
	"encoding/binary"
	"sort"
	"sync"
	"sync/atomic"

	"autorte/internal/flight"
	"autorte/internal/obs"
)

// keyBufPool recycles key scratch buffers across lookups so the steady
// state of a verification or DSE loop builds keys with zero allocations.
var keyBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendKey serializes the canonical cache key of a task set into buf:
// the tasks are stable-sorted by descending priority — exactly the order
// ResponseTimes analyzes them in, so ties keep their input order and two
// inputs map to the same key if and only if the analysis sees the same
// sequence — and every analysis-relevant field is serialized exactly
// (length-prefixed name plus fixed-width binary fields; no hashing, so
// distinct sets can never collide). The input is not modified.
func appendKey(buf []byte, tasks []Task) []byte {
	// Task sets built by the deployment layers arrive already sorted by
	// descending priority; skip the copy+sort for them.
	byPrio := tasks
	for i := 1; i < len(tasks); i++ {
		if tasks[i-1].Priority < tasks[i].Priority {
			byPrio = append([]Task(nil), tasks...)
			sort.SliceStable(byPrio, func(i, j int) bool { return byPrio[i].Priority > byPrio[j].Priority })
			break
		}
	}
	var w [8]byte
	field := func(v int64) {
		binary.LittleEndian.PutUint64(w[:], uint64(v))
		buf = append(buf, w[:]...)
	}
	for i := range byPrio {
		t := &byPrio[i]
		field(int64(len(t.Name)))
		buf = append(buf, t.Name...)
		field(int64(t.C))
		field(int64(t.T))
		field(int64(t.D))
		field(int64(t.J))
		field(int64(t.B))
		field(int64(t.Priority))
	}
	return buf
}

// Key returns the canonical cache key of a task set (see appendKey).
func Key(tasks []Task) string {
	bp := keyBufPool.Get().(*[]byte)
	buf := appendKey((*bp)[:0], tasks)
	s := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	return s
}

// entry is one memoized analysis: the per-task results plus the folded
// schedulability verdict, so Check can answer without touching the slice.
type entry struct {
	rs []Result
	ok bool
}

// Cache memoizes ResponseTimes by canonical task-set key. It is safe for
// concurrent use; during design-space exploration most candidate mappings
// leave most ECUs' task sets untouched, so repeated analysis of unchanged
// ECUs becomes a map lookup.
type Cache struct {
	mu     sync.RWMutex
	m      map[string]entry
	flight flight.Group[entry]
	hits   atomic.Uint64
	misses atomic.Uint64
	dedup  atomic.Uint64
}

// NewCache returns an empty response-time cache.
func NewCache() *Cache {
	return &Cache{m: map[string]entry{}}
}

// lookup returns the memoized entry for tasks, computing and storing it on
// a miss. Concurrent misses on the same key coalesce onto one analysis.
// The returned slice is the cache's own — callers must copy before handing
// it out mutably.
func (c *Cache) lookup(tasks []Task) (entry, error) {
	bp := keyBufPool.Get().(*[]byte)
	buf := appendKey((*bp)[:0], tasks)
	c.mu.RLock()
	e, ok := c.m[string(buf)] // map index on converted bytes: no allocation
	c.mu.RUnlock()
	if ok {
		*bp = buf
		keyBufPool.Put(bp)
		c.hits.Add(1)
		return e, nil
	}
	key := string(buf)
	*bp = buf
	keyBufPool.Put(bp)
	e, err, shared := c.flight.Do(key, func() (entry, error) {
		// A racer may have stored the entry between our miss and winning
		// the flight; re-check before analyzing.
		c.mu.RLock()
		e, ok := c.m[key]
		c.mu.RUnlock()
		if ok {
			c.hits.Add(1)
			return e, nil
		}
		c.misses.Add(1)
		rs, err := ResponseTimes(tasks)
		if err != nil {
			// Errors are not cached: they indicate invalid task sets the
			// caller should not be retrying anyway.
			return entry{}, err
		}
		e = entry{rs: rs, ok: true}
		for _, r := range rs {
			if !r.Schedulable {
				e.ok = false
				break
			}
		}
		c.mu.Lock()
		c.m[key] = e
		c.mu.Unlock()
		return e, nil
	})
	if shared {
		c.dedup.Add(1)
	}
	return e, err
}

// ResponseTimes is the memoized equivalent of the package function. The
// returned slice is a fresh copy on every call (Result holds no pointers),
// so callers may mutate it freely. A nil receiver degrades to the direct
// analysis.
func (c *Cache) ResponseTimes(tasks []Task) ([]Result, error) {
	if c == nil {
		return ResponseTimes(tasks)
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return nil, err
	}
	return append([]Result(nil), e.rs...), nil
}

// ResponseTimesShared is ResponseTimes without the defensive copy: the
// returned slice is the cache's own and MUST be treated as read-only.
// The verification pipeline's hot paths (per-ECU verdicts, chain-stage
// bounds) only read results, so they skip the per-hit copy.
func (c *Cache) ResponseTimesShared(tasks []Task) ([]Result, error) {
	if c == nil {
		return ResponseTimes(tasks)
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return nil, err
	}
	return e.rs, nil
}

// Schedulable is the memoized equivalent of the package function.
func (c *Cache) Schedulable(tasks []Task) (bool, []Result, error) {
	if c == nil {
		return Schedulable(tasks)
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return false, nil, err
	}
	return e.ok, append([]Result(nil), e.rs...), nil
}

// SchedulableShared is Schedulable without the defensive copy: the
// returned slice is the cache's own and MUST be treated as read-only.
func (c *Cache) SchedulableShared(tasks []Task) (bool, []Result, error) {
	if c == nil {
		return Schedulable(tasks)
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return false, nil, err
	}
	return e.ok, e.rs, nil
}

// Check answers only the schedulability verdict, skipping the per-call
// result copy — the hot shape in design-space exploration, where the
// search cares about feasibility and discards the response times.
func (c *Cache) Check(tasks []Task) (bool, error) {
	if c == nil {
		rs, err := ResponseTimes(tasks)
		if err != nil {
			return false, err
		}
		for _, r := range rs {
			if !r.Schedulable {
				return false, nil
			}
		}
		return true, nil
	}
	e, err := c.lookup(tasks)
	if err != nil {
		return false, err
	}
	return e.ok, nil
}

// Stats reports lookup hits and misses since creation.
func (c *Cache) Stats() (hits, misses uint64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Len reports the number of distinct task sets cached.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Observe registers the cache's hit/miss/size series into a registry
// under the shared cache metric names, labeled cache="rta". Safe on a
// nil receiver (registers nothing).
func (c *Cache) Observe(reg *obs.Registry) {
	if c == nil {
		return
	}
	label := obs.Label{Key: "cache", Value: "rta"}
	reg.CounterFunc("analysis_cache_hits_total", "Memoized analysis lookups served from cache.", c.hits.Load, label)
	reg.CounterFunc("analysis_cache_misses_total", "Memoized analysis lookups that ran the analysis.", c.misses.Load, label)
	reg.CounterFunc("analysis_cache_dedup_total", "Memoized analysis lookups coalesced onto a concurrent identical computation.", c.dedup.Load, label)
	reg.GaugeFunc("analysis_cache_entries", "Distinct problems held by the analysis cache.", func() float64 { return float64(c.Len()) }, label)
}
