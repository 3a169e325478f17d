package rtree

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Root sort orders. A pending element keeps its ids sorted by every
// coordinate, ties broken by id; building those S lists for a whole point
// set is the one global sort a cracking index ever does, and the first
// query pays for it. Each list is an LSD radix sort on the order-preserving
// uint64 image of the coordinate (sortKey), narrowed to 8-byte elements:
// the top 32 of the bits in which the job's keys differ, and the element's
// position in the ascending id list. Every pass is stable and positions
// enter ascending, so equal prefixes come out in ascending id order. When
// more than 32 bits differ, runs of equal prefix are finished on the full
// key (finishRuns); equal coordinates stay in id order there too, giving
// the (coord, id) total order without ever comparing two ids. The lists of
// one call are independent of each other and are sorted concurrently.

// sortKey maps a coordinate to a uint64 that orders as the float does:
// non-negative values get the sign bit set, negative values are
// complemented. -0 maps to the key of +0, as the comparison a == b the
// total order is built on treats them. NaNs, which no index holds, land
// past +Inf.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0 // -0 → +0
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// radixSortHigh sorts a by its upper 32 bits with stable byte-wide counting
// passes, least significant byte first, using b (same length) as the other
// buffer, and returns whichever of the two holds the result. A pass in
// which every element has the same digit would move nothing and is
// skipped.
func radixSortHigh(a, b []uint64) []uint64 {
	// Digit histograms do not depend on the element order, so one pass
	// over the input counts all four.
	var counts [4][256]uint32
	for _, v := range a {
		counts[0][byte(v>>32)]++
		counts[1][byte(v>>40)]++
		counts[2][byte(v>>48)]++
		counts[3][byte(v>>56)]++
	}
	for pass := range counts {
		c := &counts[pass]
		shift := 32 + uint(pass)*8
		if c[byte(a[0]>>shift)] == uint32(len(a)) {
			continue
		}
		sum := uint32(0)
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for _, v := range a {
			d := byte(v >> shift)
			b[c[d]] = v
			c[d]++
		}
		a, b = b, a
	}
	return a
}

// finishRuns orders each run of equal upper halves in a (sorted by them) by
// the full key of its position, keys[uint32(v)]. Positions within a run
// ascend on entry and the sort is stable, so equal keys keep them
// ascending; it is never quadratic, however long the run.
func finishRuns(a []uint64, keys []uint64) {
	for i := 1; i < len(a); i++ {
		if a[i]^a[i-1] >= 1<<32 {
			continue // most prefixes are unique: a run of one
		}
		lo, hi := i-1, i+1
		for hi < len(a) && a[hi]^a[lo] < 1<<32 {
			hi++
		}
		i = hi
		slices.SortStableFunc(a[lo:hi], func(x, y uint64) int {
			return cmp.Compare(keys[uint32(x)], keys[uint32(y)])
		})
	}
}

// orderJob is one sort order to build: ids (ascending) by coordinate d,
// delivered to *out.
type orderJob struct {
	ps  *PointSet
	ids []int32
	d   int
	out *[]int32
}

// sortScratch is a worker's key column and pair of radix buffers, kept
// across its jobs.
type sortScratch struct{ keys, a, b []uint64 }

func (s *sortScratch) run(j orderJob) {
	n := len(j.ids)
	out := make([]int32, n)
	*j.out = out
	if n == 0 {
		return
	}
	if cap(s.keys) < n {
		s.keys, s.a, s.b = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
	keys := s.keys[:n]
	var coords [gatherChunk]float64
	for lo := 0; lo < n; lo += gatherChunk {
		ids := j.ids[lo:min(lo+gatherChunk, n)]
		j.ps.GatherCoord(ids, j.d, coords[:len(ids)])
		for i := range ids {
			keys[lo+i] = sortKey(coords[i])
		}
	}
	var vary uint64
	for _, k := range keys {
		vary |= k ^ keys[0]
	}
	shift := max(0, bits.Len64(vary)-32)
	a := s.a[:n]
	for i, k := range keys {
		a[i] = uint64(uint32(k>>shift))<<32 | uint64(i)
	}
	a = radixSortHigh(a, s.b[:n])
	if shift > 0 {
		finishRuns(a, keys)
	}
	for i, v := range a {
		out[i] = j.ids[uint32(v)]
	}
}

// parallelSortMin is the total number of ids below which a batch of sort
// jobs runs on the calling goroutine: a leaf overflowing back into a
// pending element sorts a few dozen ids, less work than starting a worker.
// It is also the fewest ids a worker of the root's bucketing takes.
const parallelSortMin = 1 << 13

// runOrderJobs runs the jobs on up to GOMAXPROCS workers and returns when
// all are done.
func runOrderJobs(jobs []orderJob) {
	total := 0
	for _, j := range jobs {
		total += len(j.ids)
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	if total < parallelSortMin {
		workers = 1
	}
	var next atomic.Int32
	inParallel(workers, func(int) {
		var s sortScratch
		for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
			s.run(jobs[i])
		}
	})
}

// bucketRanges splits the ids 0..n-1 into contiguous ranges, one per
// worker of the root's bucketing: up to GOMAXPROCS, each of at least
// parallelSortMin ids. Range w is [r[w], r[w+1]).
func bucketRanges(n int) []int32 {
	workers := max(1, min(runtime.GOMAXPROCS(0), n/parallelSortMin))
	r := make([]int32, workers+1)
	for w := range r {
		r[w] = int32(n * w / workers)
	}
	return r
}

// inParallel runs fn(0), ..., fn(workers-1), each on a goroutine of its own
// when there are several, and returns when all are done.
func inParallel(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// appendOrderJobs adds the S sort jobs that fill orders (length S) for the
// id set. Ids that do not arrive ascending — a leaf's ids, a persisted
// element's — are sorted into a copy first; the caller's slice is never
// modified or retained.
func appendOrderJobs(jobs []orderJob, ps *PointSet, ids []int32, orders [][]int32) []orderJob {
	if !slices.IsSorted(ids) {
		ids = slices.Clone(ids)
		slices.Sort(ids)
	}
	for d := range orders {
		jobs = append(jobs, orderJob{ps: ps, ids: ids, d: d, out: &orders[d]})
	}
	return jobs
}

// sortedOrders returns the S sort orders of the id set: orders[d] holds the
// ids sorted by (coordinate d, id).
func sortedOrders(ps *PointSet, ids []int32) [][]int32 {
	orders := make([][]int32, ps.Dim)
	runOrderJobs(appendOrderJobs(nil, ps, ids, orders))
	return orders
}

// firstIDs returns the ids 0..n-1, the id set of a root.
func firstIDs(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}
