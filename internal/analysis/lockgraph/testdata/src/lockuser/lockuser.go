// Package lockuser exercises lockgraph's cross-package machinery: a lock
// class resolved through locklib's exported mutex field and an acquire set
// imported through AcquiresFact, each closing a cycle, and an inversion of
// the engine's index-before-WAL order, caught as a cycle too.
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

// grabUnderIndex takes the store's lock, seen through Grab's imported
// acquire set, while the index lock is held. Fine on its own;
// indexUnderStore inverts it.
func (e *engine) grabUnderIndex() int {
	e.idx.mu.Lock()
	n := e.store.Grab()
	e.idx.mu.Unlock()
	return n
}

// bad: the index lock taken while the store's exported mutex is held
// closes a cycle with grabUnderIndex's edge.
func (e *engine) indexUnderStore() {
	e.store.Mu.Lock()
	e.idx.mu.Lock() // want `potential deadlock: lock-order cycle locklib\.Store\.Mu → lockuser\.index\.mu .* → locklib\.Store\.Mu \(call at .* in grabUnderIndex\)`
	e.idx.mu.Unlock()
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

// bad: the index lock taken after the WAL's; the cycle with crack's edge
// gives it away.
func (e *engine) probeWhileLogging() int {
	e.wal.mu.Lock()
	e.idx.mu.RLock()
	n := len(e.idx.data)
	e.idx.mu.RUnlock()
	e.wal.mu.Unlock()
	return n
}
