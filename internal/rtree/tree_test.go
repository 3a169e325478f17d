package rtree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randomPointSet returns n uniform points in [0,1]^dim.
func randomPointSet(n, dim int, seed int64) *PointSet {
	rng := rand.New(rand.NewSource(seed))
	coords := make([]float64, n*dim)
	for i := range coords {
		coords[i] = rng.Float64()
	}
	return NewPointSet(dim, coords)
}

// clusteredPointSet returns points drawn from a few Gaussian blobs, a shape
// closer to transformed embedding vectors.
func clusteredPointSet(n, dim, clusters int, seed int64) *PointSet {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64() * 10
		}
	}
	coords := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		for d := 0; d < dim; d++ {
			coords[i*dim+d] = c[d] + rng.NormFloat64()*0.5
		}
	}
	return NewPointSet(dim, coords)
}

func bruteSearch(ps *PointSet, q Rect) []int32 {
	var out []int32
	for i := int32(0); int(i) < ps.N(); i++ {
		if q.Contains(ps.At(i)) {
			out = append(out, i)
		}
	}
	return out
}

func sortIDs(ids []int32) []int32 {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomQuery(rng *rand.Rand, dim int, lo, hi float64) Rect {
	c := make([]float64, dim)
	for d := range c {
		c[d] = lo + rng.Float64()*(hi-lo)
	}
	return BallRect(c, 0.05+(hi-lo)*0.05*rng.Float64())
}

func TestRectBasics(t *testing.T) {
	r := NewRect([]float64{1, 2})
	r.Expand([]float64{3, 0})
	if got := r.Volume(); got != 4 {
		t.Fatalf("Volume = %v, want 4", got)
	}
	if !r.Contains([]float64{2, 1}) {
		t.Fatalf("Contains center failed")
	}
	if r.Contains([]float64{4, 1}) {
		t.Fatalf("Contains outside succeeded")
	}
	o := Rect{Lo: []float64{2, 1}, Hi: []float64{5, 5}}
	if !r.Overlaps(o) {
		t.Fatalf("Overlaps failed")
	}
	far := []float64{6, 2}
	if got := o.MinSqDist(far); got != 1 {
		t.Fatalf("MinSqDist = %v, want 1", got)
	}
	if got := o.MinSqDist([]float64{3, 3}); got != 0 {
		t.Fatalf("MinSqDist inside = %v, want 0", got)
	}
}

func TestEmptyRect(t *testing.T) {
	r := EmptyRect(3)
	if !r.IsEmpty() {
		t.Fatalf("EmptyRect not empty")
	}
	r.Expand([]float64{1, 2, 3})
	if r.IsEmpty() {
		t.Fatalf("rect empty after Expand")
	}
	if r.Volume() != 0 {
		t.Fatalf("degenerate rect volume = %v", r.Volume())
	}
}

func TestBallRect(t *testing.T) {
	r := BallRect([]float64{1, 1}, 0.5)
	want := Rect{Lo: []float64{0.5, 0.5}, Hi: []float64{1.5, 1.5}}
	if !r.ContainsRect(want) || !want.ContainsRect(r) {
		t.Fatalf("BallRect = %v, want %v", r, want)
	}
}

func TestCrackingSearchMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{2, 3} {
		ps := clusteredPointSet(2000, dim, 5, 1)
		tr := NewCracking(ps, DefaultOptions())
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 40; i++ {
			q := randomQuery(rng, dim, 0, 10)
			got := sortIDs(tr.Search(q))
			want := sortIDs(bruteSearch(ps, q))
			if !equalIDs(got, want) {
				t.Fatalf("dim=%d query %d: got %d ids, want %d", dim, i, len(got), len(want))
			}
			tr.Crack(q)
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("dim=%d after crack %d: %v", dim, i, err)
			}
			got = sortIDs(tr.Search(q))
			if !equalIDs(got, want) {
				t.Fatalf("dim=%d post-crack query %d: got %d ids, want %d", dim, i, len(got), len(want))
			}
		}
	}
}

func TestBulkLoadedSearchMatchesBruteForce(t *testing.T) {
	ps := randomPointSet(3000, 3, 5)
	tr := NewBulkLoaded(ps, DefaultOptions())
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	st := tr.Stats()
	if st.PendingNodes != 0 {
		t.Fatalf("bulk-loaded tree has %d pending nodes", st.PendingNodes)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 50; i++ {
		q := randomQuery(rng, 3, 0, 1)
		got := sortIDs(tr.Search(q))
		want := sortIDs(bruteSearch(ps, q))
		if !equalIDs(got, want) {
			t.Fatalf("query %d: got %d ids, want %d", i, len(got), len(want))
		}
	}
}

func TestCrackingIsLazy(t *testing.T) {
	ps := randomPointSet(5000, 3, 7)
	tr := NewCracking(ps, DefaultOptions())
	if st := tr.Stats(); st.TotalNodes != 0 || st.Points != ps.N() || tr.Ready() {
		t.Fatalf("fresh cracking tree reports %d nodes over %d points (root built: %v), want none over %d",
			st.TotalNodes, st.Points, tr.Ready(), ps.N())
	}
	tr.Prepare()
	if got := tr.Stats().TotalNodes; got != 1 {
		t.Fatalf("fresh cracking tree has %d nodes, want 1", got)
	}
	// One tiny query should only crack a small part of the space.
	q := BallRect([]float64{0.5, 0.5, 0.5}, 0.02)
	tr.Crack(q)
	crackNodes := tr.Stats().TotalNodes
	bulk := NewBulkLoaded(ps, DefaultOptions())
	bulkNodes := bulk.Stats().TotalNodes
	if crackNodes*4 > bulkNodes {
		t.Fatalf("cracked tree has %d nodes, bulk %d: cracking is not lazy", crackNodes, bulkNodes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestCrackingConvergesAndStopsSplitting(t *testing.T) {
	ps := clusteredPointSet(3000, 3, 3, 9)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(10))
	queries := make([]Rect, 8)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 0, 10)
	}
	// Replay the same queries twice: the second pass must not split at all.
	for _, q := range queries {
		tr.Crack(q)
	}
	splitsAfterFirstPass := tr.Stats().BinarySplits
	for _, q := range queries {
		tr.Crack(q)
	}
	if got := tr.Stats().BinarySplits; got != splitsAfterFirstPass {
		t.Fatalf("replaying identical queries split %d more times", got-splitsAfterFirstPass)
	}
}

func TestStoppingConditionKeepsCoveredElementsCoarse(t *testing.T) {
	ps := randomPointSet(4000, 2, 11)
	tr := NewCracking(ps, DefaultOptions())
	// A query covering everything satisfies ceil(|Q∩e|/N) == ceil(|e|/N) at
	// the root: no split should happen.
	q := Rect{Lo: []float64{-1, -1}, Hi: []float64{2, 2}}
	tr.Crack(q)
	if got := tr.Stats().BinarySplits; got != 0 {
		t.Fatalf("full-cover query caused %d splits, want 0", got)
	}
	if got := tr.Stats().TotalNodes; got != 1 {
		t.Fatalf("full-cover query grew tree to %d nodes", got)
	}
}

func TestEmptyTree(t *testing.T) {
	ps := NewPointSet(3, nil)
	tr := NewCracking(ps, DefaultOptions())
	q := BallRect([]float64{0, 0, 0}, 1)
	if got := tr.Search(q); len(got) != 0 {
		t.Fatalf("empty tree returned %d ids", len(got))
	}
	tr.Crack(q)
	bulk := NewBulkLoaded(ps, DefaultOptions())
	if got := bulk.Search(q); len(got) != 0 {
		t.Fatalf("empty bulk tree returned %d ids", len(got))
	}
}

func TestSinglePointTree(t *testing.T) {
	ps := NewPointSet(2, []float64{0.3, 0.7})
	tr := NewCracking(ps, DefaultOptions())
	got := tr.Search(BallRect([]float64{0.3, 0.7}, 0.01))
	if len(got) != 1 || got[0] != 0 {
		t.Fatalf("Search = %v, want [0]", got)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestIdenticalPoints(t *testing.T) {
	// All points identical: splits are impossible to improve, but the tree
	// must stay correct and not loop forever.
	n := 500
	coords := make([]float64, n*2)
	for i := 0; i < n; i++ {
		coords[i*2], coords[i*2+1] = 1, 2
	}
	ps := NewPointSet(2, coords)
	tr := NewCracking(ps, DefaultOptions())
	q := BallRect([]float64{1, 2}, 0.5)
	tr.Crack(q)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	if got := len(tr.Search(q)); got != n {
		t.Fatalf("Search = %d ids, want %d", got, n)
	}
}

func TestStatsAndSize(t *testing.T) {
	ps := randomPointSet(2000, 3, 23)
	crack := NewCracking(ps, DefaultOptions())
	bulk := NewBulkLoaded(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 10; i++ {
		crack.Crack(randomQuery(rng, 3, 0, 1))
	}
	cs, bs := crack.Stats(), bulk.Stats()
	if cs.TotalNodes >= bs.TotalNodes {
		t.Fatalf("cracked nodes %d >= bulk nodes %d", cs.TotalNodes, bs.TotalNodes)
	}
	if cs.BinarySplits >= bs.BinarySplits {
		t.Fatalf("cracked splits %d >= bulk splits %d", cs.BinarySplits, bs.BinarySplits)
	}
	if cs.SizeBytes <= 0 || bs.SizeBytes <= 0 {
		t.Fatalf("non-positive size estimates: %d, %d", cs.SizeBytes, bs.SizeBytes)
	}
	if bs.PendingNodes != 0 {
		t.Fatalf("bulk tree has pending nodes")
	}
	if cs.Points != 2000 || bs.Points != 2000 {
		t.Fatalf("point counts wrong: %d, %d", cs.Points, bs.Points)
	}
}

func TestPartitionSplitPreservesOrders(t *testing.T) {
	ps := randomPointSet(200, 3, 29)
	p := newPartition(ps, firstIDs(ps.N()))
	scratch := make([]bool, ps.N())
	l, r := p.split(splitChoice{s: 1, pos: 80}, scratch, make([]int32, 121))
	if l.count() != 80 || r.count() != 120 {
		t.Fatalf("split sizes %d/%d, want 80/120", l.count(), r.count())
	}
	for _, half := range []*partition{l, r} {
		for s, order := range half.orders {
			for i := 1; i < len(order); i++ {
				if ps.Coord(order[i-1], s) > ps.Coord(order[i], s) {
					t.Fatalf("order %d not sorted after split", s)
				}
			}
		}
	}
	// scratch must be fully cleared.
	for i, b := range scratch {
		if b {
			t.Fatalf("scratch[%d] left dirty", i)
		}
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 32, 0}, {1, 32, 1}, {32, 32, 1}, {33, 32, 2}, {-5, 32, 0}, {64, 32, 2},
	}
	for _, c := range cases {
		if got := ceilDiv(c.a, c.b); got != c.want {
			t.Fatalf("ceilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// Property: for random point sets and random query boxes, cracking then
// searching returns exactly the brute-force result and invariants hold.
func TestQuickCrackProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed int64, qx, qy, qr float64) bool {
		n := 300 + int(seed%700+700)%700
		ps := randomPointSet(n, 2, seed)
		tr := NewCracking(ps, Options{LeafCap: 16, Fanout: 4})
		norm := func(v float64) float64 {
			if v < 0 {
				v = -v
			}
			return v - float64(int(v))
		}
		q := BallRect([]float64{norm(qx), norm(qy)}, 0.01+norm(qr)*0.3)
		tr.Crack(q)
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		return equalIDs(sortIDs(tr.Search(q)), sortIDs(bruteSearch(ps, q)))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: bulk loading any point set yields a tree whose search equals
// brute force for arbitrary query boxes.
func TestQuickBulkProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	f := func(seed int64) bool {
		n := 100 + int(seed%900+900)%900
		ps := clusteredPointSet(n, 3, 3, seed)
		tr := NewBulkLoaded(ps, Options{LeafCap: 8, Fanout: 4})
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5f5f))
		for i := 0; i < 5; i++ {
			q := randomQuery(rng, 3, 0, 10)
			if !equalIDs(sortIDs(tr.Search(q)), sortIDs(bruteSearch(ps, q))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
