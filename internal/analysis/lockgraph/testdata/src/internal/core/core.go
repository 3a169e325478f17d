// Package core stands in for the query path in the lockgraph golden test:
// the blocking rule applies only where the import path says internal/core
// or internal/rtree, so the corpus lives under that name.
package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"internal/obs"
)

type counter struct {
	mu sync.RWMutex
	n  int
}

// bad: three flavors of blocking inside one write-critical section.
func (c *counter) blockUnderLock(ch chan int) {
	c.mu.Lock()
	c.n++
	time.Sleep(time.Millisecond) // want `time.Sleep inside the c.mu write-critical section`
	fmt.Println(c.n)             // want `fmt.Println call \(I/O\) inside`
	ch <- c.n                    // want `channel send inside`
	c.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// bad: a deferred unlock keeps the section open to the end of the body.
func (c *counter) deferBlock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	time.Sleep(time.Millisecond) // want `time.Sleep inside the c.mu write-critical section`
}

// bad: select blocks like any other channel operation.
func (c *counter) selectUnder(ch chan int) {
	c.mu.Lock()
	select { // want `select statement inside`
	case <-ch:
	default:
	}
	c.mu.Unlock()
}

type engine struct {
	mu   sync.Mutex
	reg  *obs.Registry
	hits *obs.Counter
}

// bad: a registry render takes the registry lock and writes to the client,
// so it must not run inside a write-critical section; the lock-free
// increment beside it is fine.
func (e *engine) scrapeUnderLock(w io.Writer) {
	e.mu.Lock()
	e.hits.Inc()
	_ = e.reg.WritePrometheusLabeled(w, nil) // want `obs.Registry.WritePrometheusLabeled \(takes the registry lock\) inside the e.mu write-critical section`
	e.mu.Unlock()
}

// bad: a function literal written inside the section is its own root for
// the lock graph, but its blocking work still counts against the section.
func (c *counter) spawnUnderLock(ch chan int) {
	c.mu.Lock()
	go func() {
		ch <- c.n // want `channel send inside the c.mu write-critical section`
	}()
	c.mu.Unlock()
}

// pkgMu has no lock class (it is no struct's field), so it records no
// edge; its write lock still opens a section.
var pkgMu sync.Mutex

// bad: blocking under a class-less write lock.
func pkgLocked() {
	pkgMu.Lock()
	time.Sleep(time.Millisecond) // want `time.Sleep inside the pkgMu write-critical section`
	pkgMu.Unlock()
}

// ok: blocking work after the unlock is the fix the rule asks for.
func (c *counter) blockAfter() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	fmt.Println(c.n)
}

// ok: read-critical sections are not flagged — only write locks stall
// every reader behind the blocking call.
func (c *counter) snapshotN(out chan int) {
	c.mu.RLock()
	n := c.n
	c.mu.RUnlock()
	out <- n
}
