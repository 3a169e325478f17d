package rtree

import (
	"math/rand"
	"testing"
)

// The engine's read-locked fast path relies on one property: immediately
// after Crack(q), NeedsCrack(q) reports false, so a repeat of the same query
// can skip the write-lock upgrade entirely.
func TestNeedsCrackFalseAfterCrack(t *testing.T) {
	ps := clusteredPointSet(2000, 3, 4, 71)
	tr := NewCracking(ps, DefaultOptions())
	if !tr.NeedsCrack(BallRect([]float64{5, 5, 5}, 1)) {
		t.Fatal("fresh tree (nil root) reported no cracking needed")
	}
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 64; i++ {
		q := randomQuery(rng, 3, 0, 10)
		tr.Crack(q)
		if tr.NeedsCrack(q) {
			t.Fatalf("query %d: NeedsCrack true immediately after Crack of the same region", i)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// When NeedsCrack(q) reports false, actually cracking q must be a structural
// no-op — that is exactly what the engine skips. The converse direction is a
// completeness check: as long as NeedsCrack keeps reporting true, Crack must
// keep making progress (it cannot report true forever).
func TestNeedsCrackSkipIsStructuralNoOp(t *testing.T) {
	ps := clusteredPointSet(1500, 2, 3, 73)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(74))
	for i := 0; i < 48; i++ {
		q := randomQuery(rng, 2, 0, 10)
		for rounds := 0; tr.NeedsCrack(q); rounds++ {
			if rounds > 64 {
				t.Fatalf("query %d: NeedsCrack never converges", i)
			}
			before := tr.Stats()
			tr.Crack(q)
			after := tr.Stats()
			if after.TotalNodes == before.TotalNodes && after.BinarySplits == before.BinarySplits {
				t.Fatalf("query %d: NeedsCrack true but Crack changed nothing", i)
			}
		}
		before := tr.Stats()
		tr.Crack(q)
		after := tr.Stats()
		if after.TotalNodes != before.TotalNodes || after.BinarySplits != before.BinarySplits ||
			after.PendingNodes != before.PendingNodes || after.LeafNodes != before.LeafNodes {
			t.Fatalf("query %d: NeedsCrack false but Crack split anyway:\n%+v\n%+v", i, before, after)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// NeedsCrack must not mutate the tree: it is called under the engine read
// lock, concurrently with other readers.
func TestNeedsCrackIsReadOnly(t *testing.T) {
	ps := clusteredPointSet(600, 2, 3, 75)
	tr := NewCracking(ps, DefaultOptions())
	tr.Crack(BallRect([]float64{5, 5}, 2))
	before := tr.Stats()
	rng := rand.New(rand.NewSource(76))
	for i := 0; i < 32; i++ {
		tr.NeedsCrack(randomQuery(rng, 2, 0, 10))
	}
	after := tr.Stats()
	if before != after {
		t.Fatalf("NeedsCrack changed stats: %+v vs %+v", before, after)
	}
}
