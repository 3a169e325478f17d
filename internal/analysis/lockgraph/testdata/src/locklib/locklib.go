// Package locklib is the imported half of the lockgraph corpus: an
// engine-shaped type whose exported Tick acquires its own lock (the
// acquire set travels to dependents as AcquiresFact) and a leaf Store
// with an exported mutex field dependents can — wrongly — lock directly.
package locklib

import "sync"

// Store is a leaf: mutex-bearing state hung off the engine.
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

// LibEngine is an engine shape — a mutex plus a field of a mutex-bearing
// struct — which ranks LibEngine.mu engine(0) and Store.Mu leaf(1) through
// the engine-field walk.
type LibEngine struct {
	mu    sync.RWMutex
	gen   int
	store *Store
}

// Tick takes the engine write lock briefly.
func (le *LibEngine) Tick() {
	le.mu.Lock()
	le.gen++
	le.mu.Unlock()
}
