// Package scan implements the "no index" baseline: brute-force iteration
// over every entity vector in the original embedding space S1. It is both a
// performance baseline (Figs. 3, 5, 7) and the accuracy ground truth against
// which precision@K of the index-based methods is measured (Figs. 4, 6, 8),
// exactly as in the paper.
package scan

import (
	"container/heap"
	"math"
	"sort"
)

// Norm is the distance a scan ranks by.
type Norm int

const (
	// SqL2 is the squared Euclidean distance, which ranks like L2.
	SqL2 Norm = iota
	// L1 is the Manhattan distance.
	L1
)

// dist returns the distance between q and row under n.
func (n Norm) dist(q, row []float64) float64 {
	var s float64
	if n == L1 {
		for j, v := range q {
			s += math.Abs(row[j] - v)
		}
		return s
	}
	for j, v := range q {
		d := row[j] - v
		s += d * d
	}
	return s
}

// Neighbor is one ranked answer.
type Neighbor struct {
	ID   int32
	Dist float64 // distance to the query under the scan's Norm
}

// TopK scans all n vectors (row-major in data, stride dim) and returns the k
// nearest to q under norm in ascending distance order, skipping ids for
// which skip returns true. Ties are broken by id so results are
// deterministic.
func TopK(dim int, data []float64, q []float64, k int, norm Norm, skip func(int32) bool) []Neighbor {
	if k <= 0 {
		return nil
	}
	n := len(data) / dim
	h := make(maxHeap, 0, k)
	for i := 0; i < n; i++ {
		id := int32(i)
		if skip != nil && skip(id) {
			continue
		}
		cand := Neighbor{ID: id, Dist: norm.dist(q, data[i*dim:(i+1)*dim])}
		if len(h) < k {
			heap.Push(&h, cand)
		} else if less(cand, h[0]) {
			h[0] = cand
			heap.Fix(&h, 0)
		}
	}
	out := []Neighbor(h)
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

// Within returns all points at most radius from q under norm (a squared
// radius for SqL2), ascending by distance. Used as ground truth for
// aggregate queries.
func Within(dim int, data []float64, q []float64, radius float64, norm Norm, skip func(int32) bool) []Neighbor {
	n := len(data) / dim
	var out []Neighbor
	for i := 0; i < n; i++ {
		id := int32(i)
		if skip != nil && skip(id) {
			continue
		}
		if d := norm.dist(q, data[i*dim:(i+1)*dim]); d <= radius {
			out = append(out, Neighbor{ID: id, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}

func less(a, b Neighbor) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// maxHeap keeps the k smallest seen so far, with the largest on top.
type maxHeap []Neighbor

func (h maxHeap) Len() int            { return len(h) }
func (h maxHeap) Less(i, j int) bool  { return less(h[j], h[i]) }
func (h maxHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x interface{}) { *h = append(*h, x.(Neighbor)) }
func (h *maxHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}
