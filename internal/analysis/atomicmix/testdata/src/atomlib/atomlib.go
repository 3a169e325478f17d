// Package atomlib uses a typed atomic.Bool in the ways the analyzer must
// and must not flag.
package atomlib

import "sync/atomic"

type Counter struct {
	ready atomic.Bool
	name  string
}

// ok: the typed wrapper used through methods and by address.
func (c *Counter) arm() {
	c.ready.Store(true)
	p := &c.ready
	_ = p.Load()
}

// bad: the typed wrapper copied as a plain value.
func (c *Counter) snapshot() atomic.Bool {
	return c.ready // want `copied as a plain value`
}

// bad: assigned over — the write go vet's copylocks does not see.
func (c *Counter) reset() {
	c.ready = atomic.Bool{} // want `copied as a plain value`
}

// ok: fields of other types are nobody's business.
func (c *Counter) title() string { return c.name }
