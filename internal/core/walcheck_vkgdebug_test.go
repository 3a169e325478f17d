//go:build vkgdebug

package core

import (
	"testing"

	"vkgraph/internal/rtree"
)

func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic %q, got none", want)
		}
	}()
	f()
}

// An armed append without the index write lock must panic in debug
// builds; the same append under the lock must not.
func TestWALCheckCrackAppendLockDiscipline(t *testing.T) {
	eng, _, _ := walTestEngine(t)
	q := rtree.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}

	mustPanic(t, "crack WAL append without the index write lock", func() {
		eng.walAppendCrack(q)
	})

	eng.idx.mu.Lock()
	eng.walAppendCrack(q)
	eng.idx.mu.Unlock()
}

// Graph-mutation appends demand the engine write lock.
func TestWALCheckGraphAppendLockDiscipline(t *testing.T) {
	eng, _, _ := walTestEngine(t)

	mustPanic(t, "AddFact WAL append without the engine write lock", func() {
		eng.walAppendAddFact(0, 0, 1)
	})

	eng.mu.Lock()
	eng.walAppendAddFact(0, 0, 1)
	eng.walAppendSetAttr("rating", 0, 1.5)
	eng.mu.Unlock()
}

// The public mutation paths hold the right locks already: the assertions
// must stay silent end to end on a fully armed engine.
func TestWALCheckPublicPathsClean(t *testing.T) {
	eng, g, _ := walTestEngine(t)
	mutateEngine(t, eng, g)
}
