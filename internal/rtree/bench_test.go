package rtree

import (
	"math"
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

func BenchmarkFirstCrack(b *testing.B) {
	ps := benchPointSet(20000)
	q := BallRect([]float64{5, 5, 5}, 0.3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := NewCracking(ps, DefaultOptions())
		tr.Crack(q)
	}
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

// BenchmarkWalkWithin times a converged walk: 64 queries centred on points
// of a clustered 100k-point set, each bounded by the squared distance of
// its 300th nearest point, over a tree cracked around those balls until a
// further crack splits nothing.
func BenchmarkWalkWithin(b *testing.B) {
	const n, queries, visits = 100000, 64, 300
	ps := clusteredPointSet(n, 3, 16, 1)
	rng := rand.New(rand.NewSource(4))
	centers := make([][]float64, queries)
	bounds := make([]float64, queries)
	sq := make([]float64, n)
	for i := range centers {
		centers[i] = ps.At(int32(rng.Intn(n)))
		for j := range sq {
			sq[j] = ps.SqDistTo(int32(j), centers[i])
		}
		slices.Sort(sq)
		bounds[i] = sq[visits-1]
	}
	tr := NewCracking(ps, DefaultOptions())
	for before := -1; before != tr.Splits(); {
		before = tr.Splits()
		for i, c := range centers {
			tr.Crack(BallRect(c, math.Sqrt(bounds[i])))
		}
	}
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

func BenchmarkTopKSplitsCrack(b *testing.B) {
	ps := benchPointSet(20000)
	opt := DefaultOptions()
	opt.SplitChoices = 2
	rng := rand.New(rand.NewSource(6))
	queries := make([]Rect, 64)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 0, 10)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := NewCracking(ps, opt)
		b.StartTimer()
		for _, q := range queries {
			tr.Crack(q)
		}
	}
}

// BenchmarkPrepareRoot is the first query's root build at the repository
// benchmark's size.
func BenchmarkPrepareRoot(b *testing.B) {
	ps := clusteredPointSet(300000, 3, 16, 1)
	for i := 0; i < b.N; i++ {
		NewCracking(ps, DefaultOptions()).Prepare()
	}
}

// BenchmarkBestSplits evaluates the splits of one large pending element the
// way a crack's first level does: seven boundaries in each of three orders.
func BenchmarkBestSplits(b *testing.B) {
	ps := benchPointSet(20000)
	p := newPartition(ps, firstIDs(ps.N()))
	opt := DefaultOptions()
	m := ceilDiv(p.count(), opt.Fanout)
	q := BallRect([]float64{5, 5, 5}, 0.3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchChoices = bestSplits(ps, p, m, &q, opt.Beta, opt.LeafCap, 3, 1)
	}
}

// benchChoices keeps the benchmarked call's result alive.
var benchChoices []splitChoice
