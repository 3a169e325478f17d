// Package rtree implements the paper's core contribution: a cracking,
// uneven R-tree over low-dimensional (S2) entity points, built incrementally
// by the query workload (Section IV). It provides
//
//   - the classical top-down greedy-split (TGS) bulk loader
//     (Algorithm 1, BulkLoadChunk) as the offline baseline, and
//   - the greedy online cracking build (IncrementalIndexBuild),
//
// together with the search primitives the query algorithms of Section V
// need: range collection, the best-first distance walk, and contour summaries
// with per-node aggregate statistics.
package rtree

import (
	"fmt"
	"math"
)

// Rect is an axis-aligned box in S2 (the alpha-dimensional index space).
type Rect struct {
	Lo, Hi []float64
}

// NewRect returns a degenerate rectangle positioned at p.
func NewRect(p []float64) Rect {
	lo := make([]float64, len(p))
	hi := make([]float64, len(p))
	copy(lo, p)
	copy(hi, p)
	return Rect{Lo: lo, Hi: hi}
}

// EmptyRect returns an inverted rectangle that any Expand call will snap to
// the expanded point.
func EmptyRect(dim int) Rect {
	r := Rect{Lo: make([]float64, dim), Hi: make([]float64, dim)}
	r.reset()
	return r
}

// BallRect returns the minimum bounding box of the ball B(center, radius),
// the query-region shape used by Algorithm 3.
func BallRect(center []float64, radius float64) Rect {
	lo := make([]float64, len(center))
	hi := make([]float64, len(center))
	for i, c := range center {
		lo[i] = c - radius
		hi[i] = c + radius
	}
	return Rect{Lo: lo, Hi: hi}
}

// Dim returns the dimensionality of the rectangle.
func (r Rect) Dim() int { return len(r.Lo) }

// IsEmpty reports whether the rectangle is inverted (contains nothing).
func (r Rect) IsEmpty() bool {
	for i := range r.Lo {
		if r.Lo[i] > r.Hi[i] {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of r.
func (r Rect) Clone() Rect {
	return Rect{Lo: append([]float64(nil), r.Lo...), Hi: append([]float64(nil), r.Hi...)}
}

// reset empties r in place, as EmptyRect creates it.
func (r Rect) reset() {
	for i := range r.Lo {
		r.Lo[i] = math.Inf(1)
		r.Hi[i] = math.Inf(-1)
	}
}

// set overwrites r in place with o (same dimension).
func (r Rect) set(o Rect) {
	copy(r.Lo, o.Lo)
	copy(r.Hi, o.Hi)
}

// Expand grows r in place to cover point p.
func (r *Rect) Expand(p []float64) {
	for i, v := range p {
		if v < r.Lo[i] {
			r.Lo[i] = v
		}
		if v > r.Hi[i] {
			r.Hi[i] = v
		}
	}
}

// ExpandRect grows r in place to cover o.
func (r *Rect) ExpandRect(o Rect) {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] {
			r.Lo[i] = o.Lo[i]
		}
		if o.Hi[i] > r.Hi[i] {
			r.Hi[i] = o.Hi[i]
		}
	}
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p []float64) bool {
	for i, v := range p {
		if v < r.Lo[i] || v > r.Hi[i] {
			return false
		}
	}
	return true
}

// equal reports whether r and o are the same box, compared by value, so
// that -0 equals +0.
func (r Rect) equal(o Rect) bool {
	for i := range r.Lo {
		if r.Lo[i] != o.Lo[i] || r.Hi[i] != o.Hi[i] {
			return false
		}
	}
	return true
}

// ContainsRect reports whether o lies fully inside r.
func (r Rect) ContainsRect(o Rect) bool {
	for i := range r.Lo {
		if o.Lo[i] < r.Lo[i] || o.Hi[i] > r.Hi[i] {
			return false
		}
	}
	return true
}

// Overlaps reports whether r and o intersect.
func (r Rect) Overlaps(o Rect) bool {
	for i := range r.Lo {
		if r.Hi[i] < o.Lo[i] || o.Hi[i] < r.Lo[i] {
			return false
		}
	}
	return true
}

// Volume returns the product of side lengths; 0 for degenerate boxes.
func (r Rect) Volume() float64 {
	v := 1.0
	for i := range r.Lo {
		side := r.Hi[i] - r.Lo[i]
		if side < 0 {
			return 0
		}
		v *= side
	}
	return v
}

// MinSqDist returns the squared Euclidean distance from p to the closest
// point of r (0 when p is inside), the best-first search key.
func (r Rect) MinSqDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		if v < r.Lo[i] {
			d := r.Lo[i] - v
			s += d * d
		} else if v > r.Hi[i] {
			d := v - r.Hi[i]
			s += d * d
		}
	}
	return s
}

// MaxSqDist returns the squared Euclidean distance from p to the farthest
// point of r. Together with MinSqDist it brackets every point of the
// rectangle; SummarizeBall uses it to detect contour elements that lie
// entirely inside a query ball.
func (r Rect) MaxSqDist(p []float64) float64 {
	var s float64
	for i, v := range p {
		dLo := math.Abs(v - r.Lo[i])
		dHi := math.Abs(v - r.Hi[i])
		d := math.Max(dLo, dHi)
		s += d * d
	}
	return s
}

func (r Rect) String() string {
	return fmt.Sprintf("Rect[%v..%v]", r.Lo, r.Hi)
}
