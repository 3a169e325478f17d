package rtree

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestPendingCountsFollowEveryWriter is the differential test of the
// records' pending counts (node.pending). It draws its seeds from the clock
// and names the failing one. Each round builds a tree — cracking, sometimes
// over enough points for a pre-split root, or bulk loaded — then
// interleaves cracks, inserts, bursts of inserts that overflow a leaf back
// to pending, and save/load. After every step CheckInvariants must hold,
// which recounts every node's pending elements. NeedsCrack, which stops at
// a count of 0, must also agree with a descent that reads no count.
func TestPendingCountsFollowEveryWriter(t *testing.T) {
	base := time.Now().UnixNano()
	for round := int64(0); round < 12; round++ {
		seed := base + round
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(2)
		n := 100 + rng.Intn(1500)
		if round%4 == 0 {
			n = parallelSortMin + rng.Intn(500)
		}
		ps := clusteredPointSet(n, dim, 1+rng.Intn(5), seed)
		opt := Options{LeafCap: []int{4, 8, 32}[rng.Intn(3)], Fanout: 3 + rng.Intn(6)}
		tr := NewCracking(ps, opt)
		if round%4 == 3 {
			tr = NewBulkLoaded(ps, opt)
		}
		ball := func() Rect {
			return BallRect(ps.At(int32(rng.Intn(ps.N()))), 0.05+rng.Float64())
		}
		check := func(step string) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, step, err)
			}
			for i := 0; i < 4; i++ {
				q := ball()
				if got, want := tr.NeedsCrack(q), needsCrackUncounted(tr, tr.root, q); got != want {
					t.Fatalf("seed %d after %s: NeedsCrack(%v) = %v, the descent without counts says %v", seed, step, q, got, want)
				}
			}
		}
		check("build")
		for step := 0; step < 40; step++ {
			switch rng.Intn(4) {
			case 0, 1:
				tr.Crack(ball())
				check("crack")
			case 2:
				// LeafCap+1 points at one spot descend to one element: a
				// leaf there overflows back to pending.
				pt := slices.Clone(ps.At(int32(rng.Intn(ps.N()))))
				for i := 0; i <= opt.LeafCap; i++ {
					tr.Insert(ps.AppendPoint(pt))
					check("insert")
				}
			case 3:
				var buf bytes.Buffer
				if err := tr.Save(&buf); err != nil {
					t.Fatal(err)
				}
				loaded, err := Load(&buf, ps)
				if err != nil {
					t.Fatalf("seed %d: load: %v", seed, err)
				}
				tr = loaded
				check("save and load")
			}
		}
	}
}

// needsCrackUncounted is NeedsCrack's descent without the pending counts:
// it visits every node q overlaps.
func needsCrackUncounted(t *Tree, nd *node, q Rect) bool {
	switch {
	case !nd.mbr.Overlaps(q) || nd.isLeaf():
		return false
	case nd.isInternal():
		for _, c := range nd.children {
			if needsCrackUncounted(t, c, q) {
				return true
			}
		}
		return false
	}
	n, cq := nd.part.count(), nd.part.countInRect(t.ps, q)
	return cq != 0 && ceilDiv(cq, t.opt.LeafCap) != ceilDiv(n, t.opt.LeafCap)
}

// smallPendingTree is a blob with a pending element of LeafCap points,
// which no writer of today leaves but a release that could delete points
// may have saved: a root over a leaf of points 0 and 1 and a pending
// element of points 2 and 3.
var smallPendingTree = wireFlat{
	Opt: Options{LeafCap: 2, Fanout: 2}, InitialN: 4,
	Kinds: []uint8{0, 1, 2}, Counts: []int32{2, 2, 2}, IDs: []int32{0, 1, 2, 3},
}

// TestSmallPendingElementLoadsAsLeaf: Load makes a pending element that
// fits in a leaf a leaf, so that no crack has to, and the counts above it
// follow.
func TestSmallPendingElementLoadsAsLeaf(t *testing.T) {
	ps := NewPointSet(1, []float64{0, 1, 2, 3})
	tr, err := Load(encodeTree(t, smallPendingTree), ps)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	q := BallRect([]float64{2.5}, 1)
	if st := tr.Stats(); st.PendingNodes != 0 || st.LeafNodes != 2 || tr.NeedsCrack(q) {
		t.Fatalf("loaded to %d pending elements and %d leaves", st.PendingNodes, st.LeafNodes)
	}
	if !equalIDs(sortIDs(tr.Search(q)), bruteSearch(ps, q)) {
		t.Fatal("Search of the loaded tree differs from a scan")
	}
}
