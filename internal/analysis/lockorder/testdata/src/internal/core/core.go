// Package core stands in for the query path in the lockorder golden test:
// the analyzer applies only where the import path says internal/core or
// internal/rtree, so the corpus lives under that name.
package core

import (
	"fmt"
	"sync"
	"time"
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
