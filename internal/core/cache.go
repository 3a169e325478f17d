package core

import (
	"sync"

	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
)

// defaultCacheSize is the number of distinct top-k answers kept hot. At
// ~100 bytes per prediction a full cache is a few MB — small next to the
// index — and a converged index serving a skewed workload answers most
// repeat queries without a single tree descent.
const defaultCacheSize = 4096

// topkKey identifies a top-k answer: everything the result depends on
// besides the graph contents (whose changes are tracked by the engine
// generation counter instead).
type topkKey struct {
	dir Dir
	ent kg.EntityID
	rel kg.RelationID
	k   int
	eps float64
}

// slot is the one record of a top-k key: the call in flight while its
// leader computes, the cached answer once it has. A mutation bumps the
// generation, so a slot from before it, finished or pending, is replaced
// rather than shared — invalidation correct by construction, not by
// enumerating the keys a mutation touches (a new fact (h, r, t) changes the
// answer of any query whose ball held t).
type slot struct {
	key    topkKey
	gen    uint64      // the graph generation the answer is computed at
	leader obs.TraceID // the leader's trace id, for followers to link to
	// The fields below change under the cache lock. res is set by a leader
	// that succeeded (a top-k answer is never nil), so a slot with res nil
	// is pending; a leader that failed sets err and takes its slot out.
	// done is made by the first follower, so a cached answer nobody waited
	// for holds no channel, and closed when the leader has set res or err.
	res        *TopKResult
	err        error
	done       chan struct{}
	prev, next *slot // the LRU list
}

// resultCache maps each top-k key to its slot, least recently used slots
// evicted first. Cached results are shared: callers must treat them as
// immutable. Hit/miss counters live in the engine's metric registry so the
// cache's effectiveness shows up on /metrics without a second set of
// numbers to reconcile.
type resultCache struct {
	mu  sync.Mutex
	cap int
	m   map[topkKey]*slot
	// lru is the sentinel of the circular list of the slots in m, most
	// recently used first.
	lru    slot
	hits   *obs.Counter
	misses *obs.Counter
}

func newResultCache(capacity int, hits, misses *obs.Counter) *resultCache {
	c := &resultCache{cap: capacity, m: make(map[topkKey]*slot), hits: hits, misses: misses}
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	return c
}

// acquire looks key up at generation gen and counts the hit or miss. A
// finished slot is a hit and returns its answer. A pending one is returned
// for the caller to wait on its done. Otherwise (no slot, or one from
// another generation) the caller installs a pending slot stamped with its
// trace id and leads it.
func (c *resultCache) acquire(key topkKey, gen uint64, leader obs.TraceID) (res *TopKResult, s *slot, lead bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s = c.m[key]; s != nil && s.gen == gen {
		c.unlink(s)
		c.pushFront(s)
		if s.res != nil {
			c.hits.Inc()
			return s.res, s, false
		}
		c.misses.Inc()
		if s.done == nil {
			s.done = make(chan struct{})
		}
		return nil, s, false
	}
	c.misses.Inc()
	if s != nil {
		c.unlink(s)
	}
	s = &slot{key: key, gen: gen, leader: leader}
	c.m[key] = s
	c.pushFront(s)
	return nil, s, true
}

// finish publishes the leader's answer and wakes the slot's followers. A
// success evicts least recently used slots down to the capacity; a failure
// takes the slot out, unless the key's slot is another one by now.
func (c *resultCache) finish(s *slot, res *TopKResult, err error) {
	c.mu.Lock()
	if err != nil {
		s.err = err
		if c.m[s.key] == s {
			c.remove(s)
		}
	} else {
		s.res = res
		for len(c.m) > c.cap {
			c.remove(c.lru.prev)
		}
	}
	if s.done != nil {
		close(s.done)
	}
	c.mu.Unlock()
}

func (c *resultCache) pushFront(s *slot) {
	s.prev, s.next = &c.lru, c.lru.next
	c.lru.next.prev = s
	c.lru.next = s
}

func (c *resultCache) unlink(s *slot) {
	s.prev.next, s.next.prev = s.next, s.prev
}

func (c *resultCache) remove(s *slot) {
	c.unlink(s)
	delete(c.m, s.key)
}

// reset drops every slot, pending ones included (their leaders and
// followers keep the pointer), and zeroes the counters.
func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.m)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
	c.hits.Reset()
	c.misses.Reset()
}

func (c *resultCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value(), len(c.m)
}

// CacheStats reports result-cache effectiveness counters.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// CacheStats returns the current result-cache counters.
func (e *Engine) CacheStats() CacheStats {
	h, m, n := e.cache.stats()
	return CacheStats{Hits: h, Misses: m, Entries: n}
}

// ResetCache drops every cached answer and zeroes the counters (used by
// benchmarks to separate cold from warm throughput).
func (e *Engine) ResetCache() { e.cache.reset() }

// Generation returns the graph mutation counter: it increases on every
// AddFact and InsertEntity, and cached answers are only served while the
// generation they were computed at is still current. SetAttr leaves it
// alone: no cached answer reads an attribute.
func (e *Engine) Generation() uint64 { return e.gen.Load() }
