package core

import (
	"container/list"
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

// cacheEntry pins the answer to the graph generation it was computed at.
// AddFact and InsertEntity bump the generation, so entries from before a
// mutation can never be served after it — the invalidation is correct by
// construction rather than by enumerating which keys a mutation touches
// (a new fact (h, r, t) changes the answer of any query whose ball held t).
type cacheEntry struct {
	key topkKey
	gen uint64
	res *TopKResult
}

// resultCache is a mutex-guarded LRU over top-k answers. Cached results are
// shared: callers must treat them as immutable. Hit/miss counters live in
// the engine's metric registry so the cache's effectiveness shows up on
// /metrics without a second set of numbers to reconcile.
type resultCache struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	m      map[topkKey]*list.Element
	hits   *obs.Counter
	misses *obs.Counter
}

func newResultCache(capacity int, hits, misses *obs.Counter) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), m: make(map[topkKey]*list.Element),
		hits: hits, misses: misses}
}

// get returns the cached answer for key if it was computed at generation
// gen, and counts the hit or miss.
func (c *resultCache) get(key topkKey, gen uint64) (*TopKResult, bool) {
	res, ok := c.lookup(key, gen)
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	return res, ok
}

// lookup is get without the accounting. A generation mismatch means the
// graph changed since; the stale entry is dropped on the spot.
func (c *resultCache) lookup(key topkKey, gen uint64) (*TopKResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ele, ok := c.m[key]
	if !ok {
		return nil, false
	}
	ent := ele.Value.(*cacheEntry)
	if ent.gen != gen {
		c.ll.Remove(ele)
		delete(c.m, key)
		return nil, false
	}
	c.ll.MoveToFront(ele)
	return ent.res, true
}

func (c *resultCache) put(key topkKey, gen uint64, res *TopKResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ele, ok := c.m[key]; ok {
		ent := ele.Value.(*cacheEntry)
		ent.gen, ent.res = gen, res
		c.ll.MoveToFront(ele)
		return
	}
	c.m[key] = c.ll.PushFront(&cacheEntry{key: key, gen: gen, res: res})
	if c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.m, back.Value.(*cacheEntry).key)
	}
}

func (c *resultCache) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
	c.hits.Reset()
	c.misses.Reset()
}

func (c *resultCache) stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Value(), c.misses.Value(), c.ll.Len()
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
// generation they were computed at is still current.
func (e *Engine) Generation() uint64 { return e.gen.Load() }
