// Package obs is a miniature of the real internal/obs for the lockgraph
// golden test: a Registry whose Write* renders take its lock, and a Counter
// whose increment is lock-free.
package obs

import (
	"io"
	"sync"
)

// Label is one constant label appended to every rendered series.
type Label struct {
	Key, Value string
}

// Counter is a lock-free metric.
type Counter struct{ n int64 }

// Inc adds one without locking.
func (c *Counter) Inc() { c.n++ }

// Registry holds metrics behind a registration lock.
type Registry struct {
	mu      sync.Mutex
	metrics []*Counter
}

// WritePrometheusLabeled renders the registry under its lock.
func (r *Registry) WritePrometheusLabeled(w io.Writer, seen map[string]bool, extra ...Label) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
