package rtree

import (
	"math"
	"testing"
)

// twoClusterPointSet puts n/2 points near the origin and n/2 near (10,10),
// so the obviously correct binary split separates the clusters.
func twoClusterPointSet(n int) *PointSet {
	coords := make([]float64, 0, n*2)
	for i := 0; i < n/2; i++ {
		coords = append(coords, float64(i%7)*0.01, float64(i%5)*0.01)
	}
	for i := 0; i < n-n/2; i++ {
		coords = append(coords, 10+float64(i%7)*0.01, 10+float64(i%5)*0.01)
	}
	return NewPointSet(2, coords)
}

func TestBestSplitsSeparatesClusters(t *testing.T) {
	ps := twoClusterPointSet(128)
	p := newPartition(ps, firstIDs(ps.N()))
	ch, ok := bestSplit(ps, p, 64, nil, 0, 32)
	if !ok {
		t.Fatal("no split choice")
	}
	scratch := make([]bool, ps.N())
	l, r := p.split(ch, scratch, make([]int32, p.count()))
	// The chosen split must not overlap (the clusters are separable).
	if l.mbr.Overlaps(r.mbr) {
		t.Fatalf("best split overlaps: %v vs %v", l.mbr, r.mbr)
	}
	checkDisjointInSplitCoord(t, ch)
}

// checkDisjointInSplitCoord fails unless the halves of ch meet at most on
// the boundary in the coordinate it splits: the reason c_O is zero.
func checkDisjointInSplitCoord(t *testing.T, ch splitChoice) {
	t.Helper()
	if ch.mbrL.Hi[ch.s] > ch.mbrH.Lo[ch.s] {
		t.Fatalf("split %+v: halves overlap in coordinate %d", ch, ch.s)
	}
}

func TestBestSplitsQueryCostMajorOrder(t *testing.T) {
	// With a query region covering one cluster, the best split should put
	// that cluster alone on one side (minimal ceil(|Q∩L|/N)+ceil(|Q∩H|/N)).
	ps := twoClusterPointSet(128)
	p := newPartition(ps, firstIDs(ps.N()))
	q := Rect{Lo: []float64{-1, -1}, Hi: []float64{1, 1}} // first cluster
	best, ok := bestSplit(ps, p, 64, &q, countInScan(ps, p.ids(), q), 32)
	if !ok {
		t.Fatal("no split choice")
	}
	// 64 query points at leaf capacity 32 -> optimal cq is 2 (all query
	// points on one side), and splitting them across sides would cost more.
	if best.cq != 2 {
		t.Fatalf("best split cq = %d, want 2", best.cq)
	}
	checkDisjointInSplitCoord(t, best)
}

func TestMaxSqDist(t *testing.T) {
	r := Rect{Lo: []float64{0, 0}, Hi: []float64{2, 2}}
	// From the center, the farthest corner is at distance sqrt(2).
	if got := r.MaxSqDist([]float64{1, 1}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("MaxSqDist center = %v, want 2", got)
	}
	// From outside, max >= min.
	p := []float64{5, 5}
	if r.MaxSqDist(p) < r.MinSqDist(p) {
		t.Fatal("MaxSqDist < MinSqDist")
	}
}

func TestWalkAscendingOrder(t *testing.T) {
	ps := clusteredPointSet(800, 3, 3, 73)
	tr := NewCracking(ps, DefaultOptions())
	tr.Crack(BallRect([]float64{5, 5, 5}, 2))
	q := []float64{5, 5, 5}
	prev := -1.0
	count := 0
	tr.WalkWithin(q, func() float64 { return math.Inf(1) }, func(id int32, sqd float64) bool {
		if sqd < prev {
			t.Fatalf("walk not ascending: %v after %v", sqd, prev)
		}
		if got := ps.SqDistTo(id, q); math.Abs(got-sqd) > 1e-12 {
			t.Fatalf("reported distance %v, actual %v", sqd, got)
		}
		prev = sqd
		count++
		return true
	})
	if count != ps.N() {
		t.Fatalf("walk visited %d of %d points", count, ps.N())
	}
}

func TestWalkWithinBound(t *testing.T) {
	ps := clusteredPointSet(800, 3, 3, 74)
	tr := NewCracking(ps, DefaultOptions())
	q := []float64{5, 5, 5}
	const bound = 4.0
	visited := map[int32]bool{}
	tr.WalkWithin(q, func() float64 { return bound }, func(id int32, sqd float64) bool {
		if sqd > bound {
			t.Fatalf("visited point beyond bound: %v", sqd)
		}
		visited[id] = true
		return true
	})
	// Exactly the points within the bound are visited.
	for i := int32(0); int(i) < ps.N(); i++ {
		in := ps.SqDistTo(i, q) <= bound
		if in != visited[i] {
			t.Fatalf("point %d: in-bound=%v visited=%v", i, in, visited[i])
		}
	}
}
