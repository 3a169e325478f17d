package rtree

import "vkgraph/internal/rtree/points"

// PointSet is the flat store of all indexed points in S2, whose layout is
// private to package points.
type PointSet = points.Set

// AttrStats summarizes one registered attribute over a set of points.
type AttrStats = points.AttrStats

// NewPointSet wraps row-major coordinates (stride dim) as a point set.
func NewPointSet(dim int, rows []float64) *PointSet { return points.New(dim, rows) }

// mbrOf computes the minimum bounding rectangle of the given point ids.
func mbrOf(ps *PointSet, ids []int32) Rect {
	r := EmptyRect(ps.Dim)
	for _, id := range ids {
		r.Expand(ps.At(id))
	}
	return r
}
