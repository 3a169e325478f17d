//go:build vkgdebug

package core

import "fmt"

// walcheckEngineLocked asserts, in vkgdebug builds, the WAL's lock rule:
// a graph-mutation WAL record (AddFact, InsertEntity, SetAttr) may only be
// appended while the engine write lock serializes the mutation being
// logged — otherwise the file order of records can diverge from their
// apply order and replay reconstructs a different engine. That every
// mutation appends at all is held by the WAL tests (DESIGN.md §10).
//
// The check is a TryLock probe: if the write lock can be acquired here,
// the caller did not hold it, and the append is a discipline violation —
// panic immediately so the test that provoked it fails, instead of a
// later replay mismatching. The probe is best-effort (a write lock held
// by another goroutine, or a read lock, also makes TryLock fail), which
// is the right trade for an assertion compiled into debug builds only.
func (e *Engine) walcheckEngineLocked(kind string) {
	if e.mu.TryLock() {
		e.mu.Unlock()
		panic(fmt.Sprintf("core: %s WAL append without the engine write lock held", kind))
	}
}

// walcheckIndexLocked asserts the index write lock covers a crack record
// append (finishQuery logs each crack while still holding the lock it
// cracked under; see DESIGN.md § "Incremental persistence").
func (e *Engine) walcheckIndexLocked() {
	if e.idx.mu.TryLock() {
		e.idx.mu.Unlock()
		panic("core: crack WAL append without the index write lock held")
	}
}
