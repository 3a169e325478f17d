package rtree

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// The two kernels of the cold path — the root sort and the split
// evaluation — are checked against the code they replaced, kept here as
// oracles: the closure-driven comparison sort and the three-sweep
// bestSplits with its halves rescanned for their boxes and counts.

// oracleOrders is the old root sort: every order a sort.Slice through
// ps.Coord with ties broken by id.
func oracleOrders(ps *PointSet, ids []int32) [][]int32 {
	orders := make([][]int32, ps.Dim)
	for d := range orders {
		o := append([]int32{}, ids...)
		sort.Slice(o, func(i, j int) bool {
			a, b := ps.Coord(o[i], d), ps.Coord(o[j], d)
			if a != b {
				return a < b
			}
			return o[i] < o[j]
		})
		orders[d] = o
	}
	return orders
}

// oracleBestSplits is the old split evaluation: per order a forward sweep
// for the prefix boxes, a backward sweep for the suffix boxes and a third
// for the query counts, then a full sort of the choices. The halves' boxes
// and counts, which the old callers obtained by splitting and rescanning
// (computeMBR, countInRect), are filled in the same way.
func oracleBestSplits(ps *PointSet, p *partition, m int, q *Rect, beta float64, leafCap, h, topK int) []splitChoice {
	n := p.count()
	nb := ceilDiv(n, m) - 1
	if nb <= 0 {
		return nil
	}
	s := len(p.orders)
	betaH := math.Pow(beta, float64(h))
	choices := make([]splitChoice, 0, s*nb)
	fronts := make([]Rect, nb)
	backs := make([]Rect, nb)
	for so := 0; so < s; so++ {
		order := p.orders[so]
		run := EmptyRect(ps.Dim)
		bi := 0
		for i, id := range order {
			run.Expand(ps.At(id))
			if bi < nb && i+1 == (bi+1)*m {
				fronts[bi] = run.Clone()
				bi++
			}
		}
		run = EmptyRect(ps.Dim)
		bi = nb - 1
		for i := n - 1; i >= 0; i-- {
			run.Expand(ps.At(order[i]))
			if bi >= 0 && i == (bi+1)*m {
				backs[bi] = run.Clone()
				bi--
			}
		}
		var totalQ int
		var prefQ []int
		if q != nil {
			prefQ = make([]int, nb)
			bi = 0
			cnt := 0
			for i, id := range order {
				if q.Contains(ps.At(id)) {
					cnt++
				}
				if bi < nb && i+1 == (bi+1)*m {
					prefQ[bi] = cnt
					bi++
				}
			}
			totalQ = cnt
		}
		for b := 0; b < nb; b++ {
			ch := splitChoice{s: so, pos: (b + 1) * m}
			if q != nil {
				qL := prefQ[b]
				qH := totalQ - qL
				ch.cq = ceilDiv(qL, leafCap) + ceilDiv(qH, leafCap)
			}
			overlap := fronts[b].OverlapVolume(backs[b])
			minVol := math.Min(fronts[b].Volume(), backs[b].Volume())
			if overlap > 0 && minVol > 0 {
				ch.co = betaH * overlap / minVol
			}
			choices = append(choices, ch)
		}
	}
	sort.Slice(choices, func(i, j int) bool { return choices[i].less(choices[j]) })
	if topK < len(choices) {
		choices = choices[:topK]
	}
	scratch := make([]bool, ps.N())
	for i := range choices {
		ch := &choices[i]
		l, r := p.split(*ch, scratch)
		ch.mbrL, ch.mbrH = ps.MBRof(l.ids()), ps.MBRof(r.ids())
		if q != nil {
			ch.qL, ch.qH = countIn(ps, l.ids(), *q), countIn(ps, r.ids(), *q)
		}
	}
	return choices
}

// awkwardCoord draws coordinates that stress a key transform: duplicates,
// both zeros, subnormals, infinities and negatives among ordinary values.
func awkwardCoord(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(rng.Intn(5)-2)
	case 3:
		return math.Inf(rng.Intn(2)*2 - 1)
	case 4, 5:
		return float64(rng.Intn(7) - 3) // heavy duplicates
	case 6:
		return -math.MaxFloat64 * rng.Float64()
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
	}
}

func sameOrders(a, b [][]int32) bool {
	if len(a) != len(b) {
		return false
	}
	for d := range a {
		if !equalIDs(a[d], b[d]) {
			return false
		}
	}
	return true
}

func TestSortedOrdersMatchOracle(t *testing.T) {
	sizes := []int{0, 1, 2, DefaultOptions().LeafCap, 10000}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, dim := sizes[seed%5], 1+rng.Intn(4)
		coords := make([]float64, n*dim)
		for i := range coords {
			coords[i] = awkwardCoord(rng)
		}
		ps := NewPointSet(dim, coords)

		all := firstIDs(n)
		if !sameOrders(sortedOrders(ps, all), oracleOrders(ps, all)) {
			t.Fatalf("seed %d: orders of all %d ids differ from the oracle", seed, n)
		}
		// An ascending subset (a root cell) and the same ids shuffled (a leaf).
		var sub []int32
		for _, id := range all {
			if rng.Intn(3) > 0 {
				sub = append(sub, id)
			}
		}
		want := oracleOrders(ps, sub)
		if !sameOrders(sortedOrders(ps, sub), want) {
			t.Fatalf("seed %d: orders of a %d-id subset differ from the oracle", seed, len(sub))
		}
		shuffled := append([]int32{}, sub...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		kept := append([]int32{}, shuffled...)
		if !sameOrders(sortedOrders(ps, shuffled), want) {
			t.Fatalf("seed %d: orders of a shuffled subset differ from the oracle", seed)
		}
		if !equalIDs(shuffled, kept) {
			t.Fatalf("seed %d: sortedOrders modified its input", seed)
		}
	}

	// Inputs aimed at the narrowed sort's paths: keys whose differing bits
	// all fit the 32-bit prefix, none that differ at all, and more than 32
	// differing bits with equal-prefix runs long and short for finishRuns.
	mantissa := func(base float64, low uint64) float64 {
		return math.Float64frombits(math.Float64bits(base) + low)
	}
	cases := []struct {
		name  string
		n     int
		coord func(rng *rand.Rand, i int) float64
	}{
		{"a low-mantissa cluster and one far outlier", 20001, func(rng *rand.Rand, i int) float64 {
			if i == 7777 {
				return -1e300
			}
			return mantissa(1.5, uint64(rng.Intn(1<<12)))
		}},
		{"short runs of equal prefix", 20000, func(rng *rand.Rand, i int) float64 {
			return mantissa(1, uint64(rng.Intn(2000))<<40|uint64(rng.Intn(16)))
		}},
		{"only the low bits differ", 5000, func(rng *rand.Rand, i int) float64 {
			return mantissa(3, uint64(rng.Intn(1<<20)))
		}},
		{"all keys equal", 3000, func(*rand.Rand, int) float64 { return 2.5 }},
		{"both zeros", 3000, func(rng *rand.Rand, i int) float64 {
			return math.Copysign(0, float64(rng.Intn(2))-0.5)
		}},
		{"both zeros and their neighbours", 3000, func(rng *rand.Rand, i int) float64 {
			return []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64}[rng.Intn(4)]
		}},
		{"awkward coordinates above parallelSortMin", 4*parallelSortMin + 3, func(rng *rand.Rand, i int) float64 {
			return awkwardCoord(rng)
		}},
	}
	for ci, c := range cases {
		rng := rand.New(rand.NewSource(int64(ci)))
		const dim = 2
		coords := make([]float64, c.n*dim)
		for i := range coords {
			coords[i] = c.coord(rng, i/dim)
		}
		ps := NewPointSet(dim, coords)
		all := firstIDs(c.n)
		if !sameOrders(sortedOrders(ps, all), oracleOrders(ps, all)) {
			t.Fatalf("%s: orders of all %d ids differ from the oracle", c.name, c.n)
		}
		sub := all[:0:0]
		for _, id := range all {
			if rng.Intn(3) > 0 {
				sub = append(sub, id)
			}
		}
		if !sameOrders(sortedOrders(ps, sub), oracleOrders(ps, sub)) {
			t.Fatalf("%s: orders of a %d-id subset differ from the oracle", c.name, len(sub))
		}
	}
}

// sameBits reports whether two boxes agree bit for bit, telling -0 from +0.
func sameBits(a, b Rect) bool {
	for d := range a.Lo {
		if math.Float64bits(a.Lo[d]) != math.Float64bits(b.Lo[d]) ||
			math.Float64bits(a.Hi[d]) != math.Float64bits(b.Hi[d]) {
			return false
		}
	}
	return len(a.Lo) == len(b.Lo)
}

func sameBox(a, b Rect) bool {
	for d := range a.Lo {
		if a.Lo[d] != b.Lo[d] || a.Hi[d] != b.Hi[d] {
			return false
		}
	}
	return len(a.Lo) == len(b.Lo)
}

func TestBestSplitsMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(3)
		n := 40 + rng.Intn(3000)
		ps := clusteredPointSet(n, dim, 1+rng.Intn(6), seed)
		if seed%5 == 4 { // a coarse grid: duplicates, both zeros, flat boxes
			coords := make([]float64, n*dim)
			for i := range coords {
				coords[i] = math.Copysign(float64(rng.Intn(9)-4), float64(rng.Intn(2))-0.5)
			}
			ps = NewPointSet(dim, coords)
		}
		ids := firstIDs(n)
		if seed%2 == 1 { // a subset, as a cell of a pre-split root is
			ids = ids[:0]
			for id := int32(0); int(id) < n; id++ {
				if rng.Intn(4) > 0 {
					ids = append(ids, id)
				}
			}
		}
		p := newPartition(ps, ids)
		opt := DefaultOptions()
		m := max(ceilDiv(p.count(), 2+rng.Intn(opt.Fanout-1)), 1+rng.Intn(opt.LeafCap))
		var q *Rect
		if seed%4 < 2 {
			r := BallRect(ps.At(ids[rng.Intn(len(ids))]), 0.05+rng.Float64()*2)
			q = &r
		}
		for _, topK := range []int{1, 3} {
			h := rng.Intn(4)
			got := bestSplits(ps, p, m, q, opt.Beta, opt.LeafCap, h, topK)
			want := oracleBestSplits(ps, p, m, q, opt.Beta, opt.LeafCap, h, topK)
			if len(got) != len(want) {
				t.Fatalf("seed %d topK %d: %d choices, oracle has %d", seed, topK, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.s != w.s || g.pos != w.pos || g.cq != w.cq ||
					math.Float64bits(g.co) != math.Float64bits(w.co) ||
					g.qL != w.qL || g.qH != w.qH ||
					!sameBox(g.mbrL, w.mbrL) || !sameBox(g.mbrH, w.mbrH) {
					t.Fatalf("seed %d topK %d choice %d:\n got %+v\nwant %+v", seed, topK, i, g, w)
				}
			}
		}
	}
}

// TestBestSplitsAllocs pins the split evaluation's allocation shape next to
// the walk's guard (walk_test.go): a constant handful of slices per call —
// the choice list, the box slab, the counts and the winner's two boxes —
// where the three-sweep version cloned two rectangles per boundary per
// order (84 slices for this element).
func TestBestSplitsAllocs(t *testing.T) {
	ps := clusteredPointSet(2000, 3, 4, 5)
	p := newPartition(ps, firstIDs(ps.N()))
	q := BallRect(ps.At(0), 1)
	opt := DefaultOptions()
	m := ceilDiv(p.count(), opt.Fanout)
	allocs := testing.AllocsPerRun(20, func() {
		bestSplits(ps, p, m, &q, opt.Beta, opt.LeafCap, 2, 1)
	})
	if allocs > 8 {
		t.Fatalf("bestSplits allocates %v objects per call, want at most 8", allocs)
	}
}

// TestPrepareParallelMatchesSerial builds a pre-split root with its sort
// orders in one concurrent batch and on one goroutine; the shapes must be
// identical.
func TestPrepareParallelMatchesSerial(t *testing.T) {
	ps := clusteredPointSet(30000, 3, 8, 3)
	build := func(procs int) *Tree {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		tr := NewCracking(ps, DefaultOptions())
		tr.Prepare()
		tr.Prepare() // idempotent
		return tr
	}
	batch, serial := build(4), build(1)
	if !batch.Ready() || batch.StructureHash() != serial.StructureHash() {
		t.Fatal("batch-prepared root differs from the serially prepared one")
	}
	if err := batch.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := batch.Stats()
	if st.InternalNodes != 1 || st.TotalNodes != 1+len(batch.root.children) || batch.created != st.TotalNodes {
		t.Fatalf("%d nodes (%d internal), %d created, want a root and its %d cells",
			st.TotalNodes, st.InternalNodes, batch.created, len(batch.root.children))
	}
	empty := NewCracking(NewPointSet(3, nil), DefaultOptions())
	empty.Prepare()
	if !empty.Ready() || empty.Stats().TotalNodes != 1 {
		t.Fatal("empty tree not prepared as one empty leaf")
	}
}

// TestPresplitRoot pins the shape of a freshly materialized root around
// parallelSortMin. Below it the root is one pending element. At or above it
// the root is an internal node whose children are the non-empty Morton cells
// of its MBR: every point of a child bisects to that child's cell (computed
// here from the definition, not by mortonCells), the cells ascend, and the
// children's boxes lie in the root's. Every box is bit for bit the MBRof of
// its ids in ascending order, so the bucketing workers' boxes merge to the
// first-seen ±0 a single scan keeps. Seeds from 60 on are big enough to
// bucket on several workers. Builds under the ambient GOMAXPROCS, 1 and 4
// hash the same. Lemma 1 and the other invariants hold before and after
// cracking.
func TestPresplitRoot(t *testing.T) {
	for seed := int64(0); seed < 75; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + int(seed%5)
		n := parallelSortMin + []int{-300, -1, 0, 1, 300}[rng.Intn(5)]
		if seed >= 60 {
			n = 3*parallelSortMin + rng.Intn(parallelSortMin)
		}
		var ps *PointSet
		switch seed % 3 {
		case 0:
			ps = clusteredPointSet(n, dim, 1+rng.Intn(6), seed)
		case 1: // a coarse lattice of both zeros, on odd seeds its lowest value
			coords := make([]float64, n*dim)
			for i := range coords {
				coords[i] = float64(rng.Intn(5) - 2*int(seed%2^1))
				if coords[i] == 0 && rng.Intn(2) == 0 {
					coords[i] = math.Copysign(0, -1)
				}
			}
			ps = NewPointSet(dim, coords)
		default: // one to three distinct points
			distinct := clusteredPointSet(1+rng.Intn(3), dim, 1, seed)
			coords := make([]float64, 0, n*dim)
			for i := 0; i < n; i++ {
				coords = append(coords, distinct.At(int32(rng.Intn(distinct.N())))...)
			}
			ps = NewPointSet(dim, coords)
		}
		opt := DefaultOptions()
		opt.Fanout = []int{2, 3, 8, 16}[rng.Intn(4)]
		build := func(procs int) *Tree {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			if procs > 1 && n >= 2*parallelSortMin && len(bucketRanges(n)) < 3 {
				t.Fatalf("seed %d: %d points bucketed on one worker under GOMAXPROCS=%d", seed, n, procs)
			}
			tr := NewCracking(ps, opt)
			tr.Prepare()
			return tr
		}
		tr := build(runtime.GOMAXPROCS(0))
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, procs := range []int{1, 4} {
			if again := build(procs); again.StructureHash() != tr.StructureHash() {
				t.Fatalf("seed %d: builds under GOMAXPROCS %d and %d hash differently", seed, runtime.GOMAXPROCS(0), procs)
			}
		}
		if !sameBits(tr.root.mbr, ps.MBRof(firstIDs(n))) {
			t.Fatalf("seed %d: root box %v is not the MBRof its points %v", seed, tr.root.mbr, ps.MBRof(firstIDs(n)))
		}

		if n < parallelSortMin {
			if !tr.root.isPending() || tr.created != 1 {
				t.Fatalf("seed %d: a root of %d points is not a single pending element", seed, n)
			}
			continue
		}
		kids := tr.root.children
		if len(kids) < 1 || len(kids) > opt.Fanout || tr.created != 1+len(kids) {
			t.Fatalf("seed %d: a root of %d points has %d children (%d nodes created), want 1..%d",
				seed, n, len(kids), tr.created, opt.Fanout)
		}
		nbits := 0
		for 2<<nbits <= opt.Fanout {
			nbits++
		}
		cellOf := func(pt []float64) int {
			frame := tr.root.mbr.Clone()
			cell := 0
			for b := 0; b < nbits; b++ {
				d := b % dim
				mid := 0.5 * (frame.Lo[d] + frame.Hi[d])
				cell *= 2
				if pt[d] >= mid {
					cell++
					frame.Lo[d] = mid
				} else {
					frame.Hi[d] = mid
				}
			}
			return cell
		}
		last := -1
		for i, c := range kids {
			if c.isInternal() || !tr.root.mbr.ContainsRect(c.mbr) {
				t.Fatalf("seed %d: child %d is not a contour element inside the root's box", seed, i)
			}
			if want := ps.MBRof(sortIDs(append([]int32{}, c.ids()...))); !sameBits(c.mbr, want) {
				t.Fatalf("seed %d: child %d has box %v, MBRof its ids is %v", seed, i, c.mbr, want)
			}
			cell := cellOf(ps.At(c.ids()[0]))
			for _, id := range c.ids() {
				if cellOf(ps.At(id)) != cell {
					t.Fatalf("seed %d: child %d mixes Morton cells %d and %d", seed, i, cell, cellOf(ps.At(id)))
				}
			}
			if cell <= last {
				t.Fatalf("seed %d: child %d holds cell %d after cell %d", seed, i, cell, last)
			}
			last = cell
		}

		for c := 0; c < 5; c++ {
			q := BallRect(ps.At(int32(rng.Intn(n))), 0.1+rng.Float64())
			tr.Crack(q)
			if !equalIDs(sortIDs(tr.Search(q)), bruteSearch(ps, q)) {
				t.Fatalf("seed %d: search after a crack differs from the scan", seed)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d after cracks: %v", seed, err)
		}
	}
}
