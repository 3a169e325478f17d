package rtree

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

func benchPointSet(n int) *PointSet { return clusteredPointSet(n, 3, 16, 1) }

func BenchmarkBulkLoad(b *testing.B) {
	ps := benchPointSet(20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewBulkLoaded(ps, DefaultOptions())
	}
}

// BenchmarkFirstCrack is the first crack at the repository benchmark's
// size: a ball holding 35 of 300k clustered points, cracked on a fresh tree
// whose pre-split root is built outside the timer.
func BenchmarkFirstCrack(b *testing.B) {
	ps := clusteredPointSet(300000, 3, 16, 1)
	q := ballHolding(ps, firstIDs(ps.N()), ps.At(0), 35)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewCracking(ps, DefaultOptions())
		tr.Prepare()
		b.StartTimer()
		tr.Crack(q)
	}
}

// ballHolding returns the box of the ball around center that holds the k
// of the given points nearest to it.
func ballHolding(ps *PointSet, ids []int32, center []float64, k int) Rect {
	sq := make([]float64, len(ids))
	for i, id := range ids {
		sq[i] = ps.SqDistTo(id, center)
	}
	slices.Sort(sq)
	return BallRect(center, math.Sqrt(sq[k-1]))
}

func BenchmarkSteadyStateCrack(b *testing.B) {
	ps := benchPointSet(20000)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(2))
	queries := make([]Rect, 256)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 0, 10)
	}
	for _, q := range queries {
		tr.Crack(q)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Crack(queries[i%len(queries)])
	}
}

func BenchmarkSearchCracked(b *testing.B) {
	ps := benchPointSet(20000)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(3))
	queries := make([]Rect, 256)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 0, 10)
		tr.Crack(queries[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SearchFunc(queries[i%len(queries)], func(int32) {})
	}
}

// convergedWalkTree returns the tree and queries of the converged-walk
// benchmarks: 64 queries centred on points of a clustered 100k-point set,
// each bounded by the squared distance of its 300th nearest point, and a
// tree cracked around those balls until a further crack splits nothing.
func convergedWalkTree() (tr *Tree, centers [][]float64, bounds []float64) {
	const n, queries, visits = 100000, 64, 300
	ps := clusteredPointSet(n, 3, 16, 1)
	rng := rand.New(rand.NewSource(4))
	centers = make([][]float64, queries)
	bounds = make([]float64, queries)
	sq := make([]float64, n)
	for i := range centers {
		centers[i] = ps.At(int32(rng.Intn(n)))
		for j := range sq {
			sq[j] = ps.SqDistTo(int32(j), centers[i])
		}
		slices.Sort(sq)
		bounds[i] = sq[visits-1]
	}
	tr = NewCracking(ps, DefaultOptions())
	for before := -1; before != tr.Splits(); {
		before = tr.Splits()
		for i, c := range centers {
			tr.Crack(BallRect(c, math.Sqrt(bounds[i])))
		}
	}
	return tr, centers, bounds
}

// BenchmarkWalkWithin times a converged walk over convergedWalkTree.
func BenchmarkWalkWithin(b *testing.B) {
	tr, centers, bounds := convergedWalkTree()
	queries := len(centers)
	visited := 0
	visit := func(int32, float64) bool { visited++; return true }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % queries
		tr.WalkWithin(centers[k], func() float64 { return bounds[k] }, visit)
	}
	b.StopTimer()
	if visited == 0 {
		b.Fatal("the walks visited nothing")
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visits/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visited), "ns/visit")
}

// BenchmarkNeedsCrack times the probe every query makes under the index
// read lock once it has its answer: NeedsCrack on the warm regions of
// convergedWalkTree, the balls it was cracked around, for which it always
// reports false.
func BenchmarkNeedsCrack(b *testing.B) {
	tr, centers, bounds := convergedWalkTree()
	regions := make([]Rect, len(centers))
	for i, c := range centers {
		regions[i] = BallRect(c, math.Sqrt(bounds[i]))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tr.NeedsCrack(regions[i%len(regions)]) {
			b.Fatal("a warm region needs a crack")
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	ps := benchPointSet(20000)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 32; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ps.AppendPoint([]float64{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10})
		tr.Insert(id)
	}
}

// BenchmarkPrepareRoot is the first query's root build at the repository
// benchmark's size: the bucketing into Morton cells and the sort orders of
// every cell.
func BenchmarkPrepareRoot(b *testing.B) {
	ps := clusteredPointSet(300000, 3, 16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCracking(ps, DefaultOptions()).Prepare()
	}
}

// BenchmarkRootSort is the sort part of BenchmarkPrepareRoot alone: the
// three orders of the Morton cell of the same point set closest to the mean
// cell size (38.6k ids of 300k in 8 cells), built one after another on one
// goroutine with the scratch a sort worker keeps across its jobs.
func BenchmarkRootSort(b *testing.B) {
	ps := clusteredPointSet(300000, 3, 16, 1)
	cell := meanCell(ps)
	orders := make([][]int32, ps.Dim)
	jobs := appendOrderJobs(nil, ps, cell, orders)
	var s sortScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			s.run(j)
		}
	}
	b.ReportMetric(float64(len(cell)), "ids/order")
}

// BenchmarkBestSplit evaluates the splits of one large pending element the
// way a crack's first level does: seven boundaries in each of three orders.
// The elements are 20k clustered points under a ball of radius 0.3, and the
// Morton cell of 300k points closest to the mean cell size (as
// BenchmarkRootSort) under a ball holding 35 of its points.
func BenchmarkBestSplit(b *testing.B) {
	opt := DefaultOptions()
	run := func(b *testing.B, ps *PointSet, p *partition, q Rect) {
		m := ceilDiv(p.count(), opt.Fanout)
		total := p.countInRect(ps, q)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchChoice, _ = bestSplit(ps, p, m, &q, total, opt.LeafCap)
		}
		b.ReportMetric(float64(p.count()), "points")
	}
	b.Run("20k", func(b *testing.B) {
		ps := benchPointSet(20000)
		run(b, ps, newPartition(ps, firstIDs(ps.N())), BallRect([]float64{5, 5, 5}, 0.3))
	})
	b.Run("cell", func(b *testing.B) {
		ps := clusteredPointSet(300000, 3, 16, 1)
		cell := meanCell(ps)
		run(b, ps, newPartition(ps, cell), ballHolding(ps, cell, ps.At(cell[0]), 35))
	})
}

// BenchmarkSplit times the split kernel alone on the first split of a
// first crack: the Morton cell of 300k points closest to the mean cell size
// (as BenchmarkRootSort, 38.6k ids), cut where bestSplit puts a ball
// holding 35 of its points, with the element's lists restored off the
// clock.
func BenchmarkSplit(b *testing.B) {
	ps := clusteredPointSet(300000, 3, 16, 1)
	cell := meanCell(ps)
	p := newPartition(ps, cell)
	q := ballHolding(ps, cell, ps.At(cell[0]), 35)
	opt := DefaultOptions()
	ch, _ := bestSplit(ps, p, ceilDiv(p.count(), opt.Fanout), &q, p.countInRect(ps, q), opt.LeafCap)
	scratch := make([]bool, ps.N())
	cut := clonePartition(p)
	buf := make([]int32, p.count()-ch.pos+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for d, o := range p.orders {
			copy(cut.orders[d], o)
		}
		b.StartTimer()
		benchHalf, _ = cut.split(ch, scratch, buf)
	}
	b.ReportMetric(float64(p.count()), "points")
}

// meanCell returns the ids of the Morton cell of the pre-split root over ps
// whose size is closest to the mean cell size.
func meanCell(ps *PointSet) []int32 {
	n := ps.N()
	nbits := bits.Len(uint(DefaultOptions().Fanout)) - 1
	_, cells, _ := mortonCells(ps, n, nbits)
	offMean := func(c []int32) int { return max(len(c)-n>>nbits, n>>nbits-len(c)) }
	return slices.MinFunc(cells, func(x, y []int32) int { return offMean(x) - offMean(y) })
}

// benchChoice and benchHalf keep the benchmarked calls' results alive.
var (
	benchChoice splitChoice
	benchHalf   *partition
)
