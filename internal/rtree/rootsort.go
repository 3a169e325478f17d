package rtree

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Root sort orders. A pending element keeps its ids sorted by every
// coordinate, ties broken by id; building those S lists for a whole point
// set is the one global sort a cracking index ever does,
// and the first query pays for it. Each list is an LSD radix sort of
// (key, id) pairs, where key is the order-preserving uint64 image of the
// coordinate: the ids enter in ascending order and every pass is stable, so
// equal coordinates come out in ascending id order — the (coord, id) total
// order — without ever comparing two ids. The lists of one call are
// independent of each other and are sorted concurrently.

// keyID is one element of a root sort: a coordinate's sortable image and
// the point it belongs to.
type keyID struct {
	key uint64
	id  int32
}

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

// radixSort sorts a by key with stable byte-wide counting passes, least
// significant byte first, using b (same length) as the other buffer, and
// returns whichever of the two holds the result. A pass in which every key
// has the same digit would move nothing and is skipped: coordinates of one
// data set share their sign and most of their exponent, so the top passes
// usually are.
func radixSort(a, b []keyID) []keyID {
	if len(a) < 2 {
		return a
	}
	// Digit histograms do not depend on the element order, so one pass
	// over the input counts all eight.
	var counts [8][256]uint32
	for i := range a {
		k := a[i].key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	for pass := range counts {
		c := &counts[pass]
		shift := uint(pass) * 8
		if c[byte(a[0].key>>shift)] == uint32(len(a)) {
			continue
		}
		sum := uint32(0)
		for d, n := range c {
			c[d] = sum
			sum += n
		}
		for i := range a {
			d := byte(a[i].key >> shift)
			b[c[d]] = a[i]
			c[d]++
		}
		a, b = b, a
	}
	return a
}

// orderJob is one sort order to build: ids (ascending) by coordinate d,
// delivered to *out.
type orderJob struct {
	ps  *PointSet
	ids []int32
	d   int
	out *[]int32
}

// sortScratch is a worker's pair of radix buffers, kept across its jobs.
type sortScratch struct{ a, b []keyID }

func (s *sortScratch) run(j orderJob) {
	n := len(j.ids)
	if cap(s.a) < n {
		s.a, s.b = make([]keyID, n), make([]keyID, n)
	}
	a := s.a[:n]
	var coords [gatherChunk]float64
	for lo := 0; lo < n; lo += gatherChunk {
		ids := j.ids[lo:min(lo+gatherChunk, n)]
		j.ps.GatherCoord(ids, j.d, coords[:len(ids)])
		for i, id := range ids {
			a[lo+i] = keyID{key: sortKey(coords[i]), id: id}
		}
	}
	a = radixSort(a, s.b[:n])
	out := make([]int32, n)
	for i := range a {
		out[i] = a[i].id
	}
	*j.out = out
}

// parallelSortMin is the total number of ids below which a batch of sort
// jobs runs on the calling goroutine: a leaf overflowing back into a
// pending element sorts a few dozen ids, less work than starting a worker.
const parallelSortMin = 1 << 13

// runOrderJobs runs the jobs on up to GOMAXPROCS workers and returns when
// all are done.
func runOrderJobs(jobs []orderJob) {
	total := 0
	for _, j := range jobs {
		total += len(j.ids)
	}
	workers := min(runtime.GOMAXPROCS(0), len(jobs))
	if workers <= 1 || total < parallelSortMin {
		var s sortScratch
		for _, j := range jobs {
			s.run(j)
		}
		return
	}
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s sortScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				s.run(jobs[i])
			}
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
