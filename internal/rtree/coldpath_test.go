package rtree

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"unsafe"
)

// The three kernels of the cold path — the root sort, the split evaluation
// and the split — are checked against the code they replaced, kept here as
// oracles: the closure-driven comparison sort, the three-sweep evaluation
// of both cost terms with its halves rescanned for their boxes and counts,
// and the split that copied every order into fresh lists.

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

// oracleBestSplit is the paper's split evaluation as first written: per
// order a forward sweep for the prefix boxes, a backward sweep for the
// suffix boxes and a third for the query counts; every candidate is ranked
// by (c_Q, c_O, s, pos), c_O = ||O|| / min(||L||, ||H||) (the paper's
// beta^h weight is positive and cannot make a zero nonzero), and the list
// is sorted in full. The winner's boxes are MBRof each half in the order
// split, and its counts a rescan. maxCO is the largest c_O of any
// candidate, which on point data is zero (see bestSplit).
func oracleBestSplit(ps *PointSet, p *partition, m int, q *Rect, leafCap int) (ch splitChoice, ok bool, maxCO float64) {
	n := p.count()
	nb := ceilDiv(n, m) - 1
	if nb <= 0 {
		return ch, false, 0
	}
	type ranked struct {
		ch splitChoice
		co float64
	}
	var all []ranked
	fronts := make([]Rect, nb)
	backs := make([]Rect, nb)
	for so, order := range p.orders {
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
			r := ranked{ch: splitChoice{s: so, pos: (b + 1) * m}}
			if q != nil {
				r.ch.cq = ceilDiv(prefQ[b], leafCap) + ceilDiv(totalQ-prefQ[b], leafCap)
			}
			overlap := overlapVolume(fronts[b], backs[b])
			minVol := math.Min(fronts[b].Volume(), backs[b].Volume())
			if overlap > 0 && minVol > 0 {
				r.co = overlap / minVol
				maxCO = math.Max(maxCO, r.co)
			}
			all = append(all, r)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.ch.cq != b.ch.cq {
			return a.ch.cq < b.ch.cq
		}
		if a.co != b.co {
			return a.co < b.co
		}
		if a.ch.s != b.ch.s {
			return a.ch.s < b.ch.s
		}
		return a.ch.pos < b.ch.pos
	})
	ch = all[0].ch
	order := p.orders[ch.s]
	ch.mbrL, ch.mbrH = ps.MBRof(order[:ch.pos]), ps.MBRof(order[ch.pos:])
	if q != nil {
		for i, id := range order {
			if q.Contains(ps.At(id)) {
				if i < ch.pos {
					ch.qL++
				} else {
					ch.qH++
				}
			}
		}
	}
	return ch, true, maxCO
}

// overlapVolume is the volume of the intersection of two boxes, as the
// oracle's c_O term measured it.
func overlapVolume(r, o Rect) float64 {
	v := 1.0
	for i := range r.Lo {
		lo := math.Max(r.Lo[i], o.Lo[i])
		hi := math.Min(r.Hi[i], o.Hi[i])
		if hi <= lo {
			return 0
		}
		v *= hi - lo
	}
	return v
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

// splitCase draws a pending element, a chunk size and a query region for
// the split evaluation's differential tests. The seed picks the points
// (clustered; a coarse lattice with duplicates and both zeros; a {-1, 0, 1}
// lattice, where most bounds are a zero of either sign; or an element
// edited by Insert, whose lists have grown by append) and the
// region (a ball around a point; nil; the element's whole box; a box
// disjoint from it; or a ball stretched to the low or the high end of one
// order). On some seeds the element holds a subset of the ids, as a cell
// of a pre-split root does.
func splitCase(seed int64) (ps *PointSet, p *partition, m int, q *Rect) {
	rng := rand.New(rand.NewSource(seed))
	dim := 2 + rng.Intn(3)
	n := 40 + rng.Intn(3000)
	lattice := func(vals int) *PointSet {
		coords := make([]float64, n*dim)
		for i := range coords {
			coords[i] = math.Copysign(float64(rng.Intn(vals)-vals/2), float64(rng.Intn(2))-0.5)
		}
		return NewPointSet(dim, coords)
	}
	ids := firstIDs(n)
	if seed/24%2 == 1 {
		ids = ids[:0]
		for id := int32(0); int(id) < n; id++ {
			if rng.Intn(4) > 0 {
				ids = append(ids, id)
			}
		}
	}
	opt := DefaultOptions()
	switch seed % 4 {
	case 0:
		ps = clusteredPointSet(n, dim, 1+rng.Intn(6), seed)
	case 1:
		ps = lattice(9)
	case 2:
		ps = lattice(3)
	default:
		// Copies of earlier points, a zero's sign flipped at random, are
		// inserted.
		ps = lattice(5)
		tr := NewCracking(ps, opt)
		tr.Prepare()
		for i := 0; i < 50; i++ {
			pt := append([]float64{}, ps.At(int32(rng.Intn(ps.N())))...)
			for d := range pt {
				if pt[d] == 0 && rng.Intn(2) == 0 {
					pt[d] = -pt[d]
				}
			}
			tr.Insert(ps.AppendPoint(pt))
		}
		p = tr.root.part
	}
	if p == nil {
		p = newPartition(ps, ids)
	}
	m = max(ceilDiv(p.count(), 2+rng.Intn(opt.Fanout-1)), 1+rng.Intn(opt.LeafCap))
	ball := func() Rect { return BallRect(ps.At(p.ids()[rng.Intn(p.count())]), 0.05+rng.Float64()*2) }
	var r Rect
	switch s := rng.Intn(dim); seed / 4 % 6 {
	case 0:
		r = ball()
	case 1:
		return ps, p, m, nil
	case 2:
		r = p.mbr.Clone()
	case 3:
		r = p.mbr.Clone()
		r.Lo[s], r.Hi[s] = r.Hi[s]+1, r.Hi[s]+2
	case 4:
		r = ball()
		r.Lo[s] = p.mbr.Lo[s]
	default:
		r = ball()
		r.Hi[s] = p.mbr.Hi[s]
	}
	return ps, p, m, &r
}

// countInScan is |q ∩ ids| by a plain scan.
func countInScan(ps *PointSet, ids []int32, q Rect) int {
	c := 0
	for _, id := range ids {
		if q.Contains(ps.At(id)) {
			c++
		}
	}
	return c
}

// TestBestSplitsMatchOracle holds bestSplit to the paper's evaluation on
// 360 seeds of splitCase: the same choice with the same counts, and boxes
// equal by value to the halves' MBRof. It also asserts the premise the counting rests on: the
// oracle's c_O is zero for every candidate.
func TestBestSplitsMatchOracle(t *testing.T) {
	for seed := int64(0); seed < 360; seed++ {
		ps, p, m, q := splitCase(seed)
		total := 0
		if q != nil {
			total = countInScan(ps, p.ids(), *q)
		}
		opt := DefaultOptions()
		g, gok := bestSplit(ps, p, m, q, total, opt.LeafCap)
		w, wok, maxCO := oracleBestSplit(ps, p, m, q, opt.LeafCap)
		if maxCO != 0 {
			t.Fatalf("seed %d: a candidate split has overlap cost %v", seed, maxCO)
		}
		if gok != wok {
			t.Fatalf("seed %d: bestSplit found a split: %v, the oracle: %v", seed, gok, wok)
		}
		if gok && (g.s != w.s || g.pos != w.pos || g.cq != w.cq || g.qL != w.qL || g.qH != w.qH ||
			!g.mbrL.equal(w.mbrL) || !g.mbrH.equal(w.mbrH)) {
			t.Fatalf("seed %d:\n got %+v\nwant %+v", seed, g, w)
		}
	}
}

// TestCountInRectMatchesScan holds a pending element's count of a region,
// taken over the narrowest order's stretch, to a scan of all its points.
func TestCountInRectMatchesScan(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		ps, p, _, q := splitCase(seed)
		if q == nil {
			r := BallRect(ps.At(p.ids()[0]), float64(seed%7))
			q = &r
		}
		if got, want := p.countInRect(ps, *q), countInScan(ps, p.ids(), *q); got != want {
			t.Fatalf("seed %d: countInRect = %d, a scan counts %d", seed, got, want)
		}
	}
}

// TestBestSplitsAllocs pins the split evaluation's allocation shape next to
// the walk's guard (walk_test.go): one slab for the winner's boxes.
func TestBestSplitsAllocs(t *testing.T) {
	ps := clusteredPointSet(2000, 3, 4, 5)
	p := newPartition(ps, firstIDs(ps.N()))
	q := BallRect(ps.At(0), 1)
	total := countInScan(ps, p.ids(), q)
	opt := DefaultOptions()
	m := ceilDiv(p.count(), opt.Fanout)
	allocs := testing.AllocsPerRun(20, func() {
		bestSplit(ps, p, m, &q, total, opt.LeafCap)
	})
	if allocs > 1 {
		t.Fatalf("bestSplit allocates %v objects per call, want at most 1", allocs)
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
// children's boxes lie in the root's. Every box is the MBRof of its ids.
// Seeds from 60 on are big enough to
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
		if !tr.root.mbr.equal(ps.MBRof(firstIDs(n))) {
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
			if want := ps.MBRof(sortIDs(append([]int32{}, c.ids()...))); !c.mbr.equal(want) {
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

// oracleSplit is the split as first written: every order of p copied into
// two fresh lists, one per half, branching on the membership flag. p is
// left as it was.
func oracleSplit(p *partition, ch splitChoice, scratch []bool) (left, right *partition) {
	n := p.count()
	pos := ch.pos
	leftIDs := p.orders[ch.s][:pos]
	for _, id := range leftIDs {
		scratch[id] = true
	}
	lo := make([][]int32, len(p.orders))
	hi := make([][]int32, len(p.orders))
	for d := range p.orders {
		l := make([]int32, 0, pos)
		h := make([]int32, 0, n-pos)
		for _, id := range p.orders[d] {
			if scratch[id] {
				l = append(l, id)
			} else {
				h = append(h, id)
			}
		}
		lo[d] = l
		hi[d] = h
	}
	for _, id := range leftIDs {
		scratch[id] = false
	}
	return &partition{orders: lo, mbr: ch.mbrL}, &partition{orders: hi, mbr: ch.mbrH}
}

// clonePartition copies p's lists, keeping their capacities.
func clonePartition(p *partition) *partition {
	c := &partition{orders: make([][]int32, len(p.orders)), mbr: p.mbr}
	for d, o := range p.orders {
		c.orders[d] = append(make([]int32, 0, cap(o)), o...)
	}
	return c
}

// TestSplitInPlaceMatchesCopy holds the in-place split to oracleSplit, id
// for id in all S lists of both halves, on 360
// seeds of splitCase: clustered points, ±0 lattices with duplicates, and
// elements edited by Insert, whose lists keep append's spare capacity. On every third seed the element is cut down to a size around
// LeafCap. Every order s is cut at 1, m and n−1. The in-place halves are
// capped views of the element's own lists, so an insert into the left half
// leaves the right one as it was; the halves carry the choice's boxes; the
// flags are cleared.
func TestSplitInPlaceMatchesCopy(t *testing.T) {
	opt := DefaultOptions()
	spare := 0
	for seed := int64(0); seed < 360; seed++ {
		ps, p, m, _ := splitCase(seed)
		if seed%3 == 2 {
			rng := rand.New(rand.NewSource(seed))
			ids := sortIDs(slices.Clone(p.ids()))
			p = newPartition(ps, ids[:min(len(ids), opt.LeafCap-4+rng.Intn(2*opt.LeafCap))])
			m = max(ceilDiv(p.count(), opt.Fanout), opt.LeafCap)
		}
		if cap(p.orders[0]) > p.count() {
			spare++
		}
		n := p.count()
		added := ps.AppendPoint(ps.At(p.ids()[0]))
		scratch := make([]bool, ps.N())
		for s := range p.orders {
			for _, pos := range []int{1, m, n - 1} {
				if pos <= 0 || pos >= n {
					continue
				}
				ch := splitChoice{s: s, pos: pos, mbrL: EmptyRect(ps.Dim), mbrH: p.mbr.Clone()}
				wantL, wantR := oracleSplit(p, ch, scratch)
				cut := clonePartition(p)
				inL, inR := cut.split(ch, scratch, make([]int32, n-pos+1))
				for d := range p.orders {
					if !equalIDs(inL.orders[d], wantL.orders[d]) || !equalIDs(inR.orders[d], wantR.orders[d]) {
						t.Fatalf("seed %d s %d pos %d: order %d of a half differs from the copying split", seed, s, pos, d)
					}
					if cap(inL.orders[d]) != pos || cap(inR.orders[d]) != n-pos ||
						unsafe.SliceData(inL.orders[d]) != unsafe.SliceData(cut.orders[d]) {
						t.Fatalf("seed %d s %d pos %d: order %d's halves are not capped views of the element", seed, s, pos, d)
					}
				}
				for _, h := range [][2]*partition{{inL, wantL}, {inR, wantR}} {
					if !h[0].mbr.equal(h[1].mbr) {
						t.Fatalf("seed %d s %d pos %d: a half's box is not the choice's", seed, s, pos)
					}
				}
				insertSorted(ps, inL, added)
				if !sameOrders(inR.orders, wantR.orders) {
					t.Fatalf("seed %d s %d pos %d: an insert into the left half wrote into the right", seed, s, pos)
				}
			}
		}
		if slices.Contains(scratch, true) {
			t.Fatalf("seed %d: a split left membership flags set", seed)
		}
	}
	if spare == 0 {
		t.Fatal("no element had spare capacity in its lists")
	}
}

// contourLists returns every id list of tr's contour: each leaf's ids and
// each pending element's S orders.
func contourLists(tr *Tree) [][]int32 {
	var lists [][]int32
	tr.ensureRoot()
	tr.root.eachElement(nil, func(nd *node) {
		if nd.isLeaf() {
			lists = append(lists, nd.leaf.ids)
		} else {
			lists = append(lists, nd.part.orders...)
		}
	})
	return lists
}

// outlivesCrack reports a list of the contour after a crack that lies in
// memory a list from before it held without being that list whole: a leaf
// or a surviving element still viewing the lists of the element cracked.
func outlivesCrack(before, after [][]int32) error {
	type span struct{ from, to uintptr }
	spanOf := func(l []int32) span {
		from := uintptr(unsafe.Pointer(unsafe.SliceData(l)))
		return span{from, from + uintptr(cap(l))*4}
	}
	old := make([]span, len(before))
	for i, l := range before {
		old[i] = spanOf(l)
	}
	// The lists from before are disjoint (CheckInvariants), so the first
	// that ends past a list's start is the only one it can lie in whole.
	slices.SortFunc(old, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	for _, l := range after {
		s := spanOf(l)
		i := sort.Search(len(old), func(i int) bool { return old[i].to > s.from })
		if i < len(old) && old[i].from < s.to && old[i] != s {
			return fmt.Errorf("a list of %d ids lies in the memory of a list from before the crack", len(l))
		}
	}
	return nil
}

// TestContourListsOwnMemory runs random sequences of cracks and inserts on
// cracking trees and on bulk-loaded ones, some with a pre-split root. After
// every step CheckInvariants holds, which includes that no two id lists of
// the contour share memory; after a crack no list lies in the memory of the
// lists it cut (outlivesCrack); and a search around a point, which inserts
// often land beside, agrees with a scan of the points.
func TestContourListsOwnMemory(t *testing.T) {
	shared := make([]int32, 8)
	if sharedLists([][]int32{shared[:4:4], shared[4:]}) != nil || sharedLists([][]int32{shared[:5], shared[4:]}) == nil {
		t.Fatal("sharedLists misjudges two views of one array")
	}
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ps := clusteredPointSet(1500+rng.Intn(9000), 3, 1+rng.Intn(6), seed)
		var tr *Tree
		if seed%4 == 3 {
			tr = NewBulkLoaded(ps, DefaultOptions())
		} else {
			tr = NewCracking(ps, DefaultOptions())
		}
		near := func() Rect { return BallRect(ps.At(int32(rng.Intn(ps.N()))), 0.05+rng.Float64()) }
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0, 1:
				before := contourLists(tr)
				tr.Crack(near())
				if err := outlivesCrack(before, contourLists(tr)); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			default:
				for i := 0; i < 1+rng.Intn(40); i++ {
					pt := append([]float64{}, ps.At(int32(rng.Intn(ps.N())))...)
					pt[rng.Intn(len(pt))] += rng.Float64() * 0.01
					tr.Insert(ps.AppendPoint(pt))
				}
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			q := near()
			want := bruteSearch(ps, q)
			if got := sortIDs(tr.Search(q)); !equalIDs(got, want) {
				t.Fatalf("seed %d step %d: search finds %d points, a scan %d", seed, step, len(got), len(want))
			}
		}
	}
}

// TestFirstCrackAllocs pins the objects a fixed first crack allocates on a
// pre-split root of parallelSortMin points (built before counting): per
// split the two halves' records and list headers and bestSplit's box
// slab, per leaf its copied ids and rows, per element still pending at
// the end its S lists, and the nodes' child lists and the cut buffer. A
// half that allocated its S lists again would add S objects per split.
func TestFirstCrackAllocs(t *testing.T) {
	const runs = 10
	ps := clusteredPointSet(parallelSortMin, 3, 16, 1)
	q := ballHolding(ps, firstIDs(ps.N()), ps.At(0), 35)
	trees := make([]*Tree, runs+1)
	for i := range trees {
		trees[i] = NewCracking(ps, DefaultOptions())
		trees[i].Prepare()
	}
	i := 0
	allocs := testing.AllocsPerRun(runs, func() {
		trees[i].Crack(q)
		i++
	})
	// The copying split allocated 267 objects here.
	if splits := trees[0].Splits(); allocs > 175 || splits != 19 {
		t.Fatalf("the first crack made %d splits with %v objects, want 19 splits and at most 175 objects", splits, allocs)
	}
}
