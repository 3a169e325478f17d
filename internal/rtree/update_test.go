package rtree

import (
	"math"
	"math/rand"
	"testing"
)

func TestInsertIntoCrackedTree(t *testing.T) {
	ps := clusteredPointSet(1500, 3, 4, 41)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 15; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("pre-insert invariants: %v", err)
	}

	// Insert 200 new points at random positions.
	var newIDs []int32
	for i := 0; i < 200; i++ {
		pt := []float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		id := ps.AppendPoint(pt)
		tr.Insert(id)
		newIDs = append(newIDs, id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("post-insert invariants: %v", err)
	}

	// Every inserted point must be findable.
	for _, id := range newIDs {
		q := NewRect(ps.At(id))
		found := false
		for _, got := range tr.Search(q) {
			if got == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("inserted point %d not found", id)
		}
	}

	// Search must still agree with brute force after more cracking.
	for i := 0; i < 10; i++ {
		q := randomQuery(rng, 3, 0, 10)
		tr.Crack(q)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("invariants after post-insert crack %d: %v", i, err)
		}
		got := sortIDs(tr.Search(q))
		want := sortIDs(bruteSearch(ps, q))
		if !equalIDs(got, want) {
			t.Fatalf("post-insert search mismatch: %d vs %d ids", len(got), len(want))
		}
	}
}

func TestInsertOverflowsLeafBackToPending(t *testing.T) {
	// Build a tiny tree that is one leaf, then overflow it.
	ps := randomPointSet(10, 2, 43)
	opt := DefaultOptions()
	opt.LeafCap = 16
	tr := NewCracking(ps, opt)
	tr.Crack(BallRect([]float64{0.5, 0.5}, 2)) // everything in one leaf
	if tr.Stats().LeafNodes != 1 {
		t.Fatalf("expected a single leaf, got %+v", tr.Stats())
	}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 20; i++ {
		id := ps.AppendPoint([]float64{rng.Float64(), rng.Float64()})
		tr.Insert(id)
	}
	st := tr.Stats()
	if st.PendingNodes != 1 || st.LeafNodes != 0 {
		t.Fatalf("overflowed leaf should be pending: %+v", st)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// The deferred split happens at the next relevant query.
	tr.Crack(BallRect([]float64{0.5, 0.5}, 0.05))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after crack: %v", err)
	}
}

func TestInsertIntoBulkTree(t *testing.T) {
	ps := randomPointSet(800, 3, 45)
	tr := NewBulkLoaded(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 100; i++ {
		id := ps.AppendPoint([]float64{rng.Float64(), rng.Float64(), rng.Float64()})
		tr.Insert(id)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	q := Rect{Lo: []float64{-1, -1, -1}, Hi: []float64{2, 2, 2}}
	if got := len(tr.Search(q)); got != 900 {
		t.Fatalf("found %d of 900 points", got)
	}
}

func TestInsertIntoEmptyTree(t *testing.T) {
	ps := NewPointSet(2, nil)
	tr := NewCracking(ps, DefaultOptions())
	id := ps.AppendPoint([]float64{1, 2})
	tr.Insert(id)
	if got := tr.Search(NewRect([]float64{1, 2})); len(got) != 1 || got[0] != id {
		t.Fatalf("Search after insert into empty tree: %v", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestChooseChildAllocatesNothing: an Insert's descent reads every child's
// enlargement at every level, so it must not allocate; and enlargement must
// be bit-equal to growing a copy of the box and taking the difference of
// the volumes, or inserts would descend differently.
func TestChooseChildAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	children := make([]*node, 8)
	for i := range children {
		lo := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		r := NewRect(lo)
		r.Expand([]float64{lo[0] + rng.Float64(), lo[1] + rng.Float64(), lo[2]})
		children[i] = &node{mbr: r}
	}
	for i := 0; i < 1000; i++ {
		pt := []float64{rng.Float64() * 2, rng.Float64() * 2, rng.Float64() * 2}
		if i%4 == 0 {
			pt[2] = 0
		}
		for _, c := range children {
			grown := c.mbr.Clone()
			grown.Expand(pt)
			if got, want := enlargement(c.mbr, pt), grown.Volume()-c.mbr.Volume(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("enlargement of %v by %v = %v, want %v", c.mbr, pt, got, want)
			}
		}
	}
	pt := []float64{0.5, 0.5, 0.5}
	if allocs := testing.AllocsPerRun(100, func() { chooseChild(children, pt) }); allocs != 0 {
		t.Fatalf("chooseChild allocates %v objects, want 0", allocs)
	}
}

// TestCheckInvariantsRequiresTightBoxes: the updates are insert-only, so
// every node's box is the exact box of the points below it. A node widened
// inside its parent, which every containment test passes, is reported.
func TestCheckInvariantsRequiresTightBoxes(t *testing.T) {
	ps := clusteredPointSet(1500, 3, 4, 90)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 10; i++ {
		tr.Crack(BallRect(ps.At(int32(rng.Intn(ps.N()))), 0.5))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	widen := func(what string, v *float64, to float64) {
		t.Helper()
		was := *v
		*v = to
		if err := tr.CheckInvariants(); err == nil {
			t.Fatalf("CheckInvariants passes a widened %s", what)
		}
		*v = was
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	widen("root", &tr.root.mbr.Hi[0], tr.root.mbr.Hi[0]+1)
	var find func(parent *node) bool
	find = func(parent *node) bool {
		for _, c := range parent.children {
			for d := range c.mbr.Lo {
				if c.mbr.Lo[d] > parent.mbr.Lo[d] {
					widen("child", &c.mbr.Lo[d], parent.mbr.Lo[d])
					return true
				}
			}
			if find(c) {
				return true
			}
		}
		return false
	}
	if !find(tr.root) {
		t.Fatal("no node lies strictly inside its parent; the test widened nothing")
	}
}
