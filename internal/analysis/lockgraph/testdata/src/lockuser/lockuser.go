// Package lockuser exercises lockgraph's cross-package machinery: a lock
// class resolved through locklib's exported mutex field, an acquire set
// imported through AcquiresFact, rank inversions judged against the union
// of both packages' shape-derived ranks, and an inversion between two
// leaves, which no rank separates, caught as a cycle.
package lockuser

import (
	"sync"

	"locklib"
)

type index struct {
	mu   sync.RWMutex
	data []int
}

type wal struct {
	mu  sync.Mutex
	log []int
}

type engine struct {
	mu    sync.RWMutex
	idx   index
	wal   *wal
	store *locklib.Store
}

// ok: the documented order — engine read lock, then the index.
func (e *engine) query() int {
	e.mu.RLock()
	e.idx.mu.RLock()
	n := len(e.idx.data)
	e.idx.mu.RUnlock()
	e.mu.RUnlock()
	return n
}

// ok: nothing held around the foreign call.
func (e *engine) count() int {
	return e.store.Grab()
}

// bad: a foreign engine-ranked lock acquired (through Tick's imported
// acquire set) while the index lock is held.
func (e *engine) tickUnderIndex(le *locklib.LibEngine) {
	e.idx.mu.Lock()
	le.Tick() // want `lock order inverted: locklib\.LibEngine\.mu \(engine\) acquired while lockuser\.index\.mu \(leaf\) is held in tickUnderIndex`
	e.idx.mu.Unlock()
}

// bad: the engine lock acquired while the leaf store — ranked by
// locklib's own engine shape — is held directly.
func (e *engine) storeThenEngine() {
	e.store.Mu.Lock()
	e.mu.RLock() // want `lock order inverted: lockuser\.engine\.mu \(engine\) acquired while locklib\.Store\.Mu \(leaf\) is held in storeThenEngine`
	e.mu.RUnlock()
	e.store.Mu.Unlock()
}

// crack logs under the index write lock: index before WAL, the order the
// engine documents. Fine on its own; probeWhileLogging inverts it.
func (e *engine) crack() {
	e.mu.RLock()
	e.idx.mu.Lock()
	e.idx.data = append(e.idx.data, 1)
	e.wal.mu.Lock() // want `potential deadlock: lock-order cycle lockuser\.index\.mu → lockuser\.wal\.mu .* → lockuser\.index\.mu`
	e.wal.log = append(e.wal.log, 1)
	e.wal.mu.Unlock()
	e.idx.mu.Unlock()
	e.mu.RUnlock()
}

// bad: the index lock taken after the WAL's. Both are leaves, so no rank is
// inverted; the cycle with crack's edge is what gives it away.
func (e *engine) probeWhileLogging() int {
	e.wal.mu.Lock()
	e.idx.mu.RLock()
	n := len(e.idx.data)
	e.idx.mu.RUnlock()
	e.wal.mu.Unlock()
	return n
}
