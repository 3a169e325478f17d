// Package locklib is the imported half of the lockgraph corpus: a Store
// whose Grab acquires its lock (the acquire set travels to dependents as
// AcquiresFact) and whose exported mutex field dependents can — wrongly —
// lock directly.
package locklib

import "sync"

// Store is mutex-bearing state an engine hangs off a field.
type Store struct {
	Mu   sync.Mutex
	data []int
}

// Grab locks the store briefly; the acquire set is exported as a fact.
func (s *Store) Grab() int {
	s.Mu.Lock()
	n := len(s.data)
	s.Mu.Unlock()
	return n
}
