// Package points is the index's point storage: the flat store of every
// point in S2 (Set) and a leaf's page (Page), the copy of a leaf's points
// that a leaf scan reads. Both layouts are private to this package, so the
// compiler holds every reader elsewhere to the accessor API: At, Coord,
// GatherCoord, SqDistTo, GatherSqDists, AttrValue, HasAttr, and the two
// scans named AppendWithin, a page's and a pending element's ids'. A page
// answers for its points only because every write to it copies the exact
// row, and its scan sums a distance in SqDistTo's order, so the two are
// bit-identical; no code outside this package can break either.
package points

import (
	"fmt"
	"math"
)

// Set is the flat store of all indexed points in S2: point i's exact
// float64 coordinates at stride Dim in a row-major block; the point index
// doubles as the entity id. A leaf's points are also copied into its Page,
// which is what a leaf scan reads; the block stays the source of truth.
//
// Attribute columns (for aggregate queries) may be bound so that contour
// elements can expose count/min/max statistics, as the paper suggests for
// estimating v_m in Theorem 4.
type Set struct {
	Dim int

	coords []float64 // row-major exact coordinates, the source of truth

	attrNames []string
	attrCols  [][]float64 // parallel to attrNames; indexed by point id
}

// New wraps row-major coordinates (stride dim) as a point set.
func New(dim int, coords []float64) *Set {
	if dim <= 0 {
		panic(fmt.Sprintf("points: invalid dimension %d", dim))
	}
	if len(coords)%dim != 0 {
		panic("points: coords length is not a multiple of dim")
	}
	return &Set{Dim: dim, coords: coords}
}

// N returns the number of points.
func (ps *Set) N() int { return len(ps.coords) / ps.Dim }

// At returns a view of point i's coordinates; the slice must not be
// modified.
func (ps *Set) At(i int32) []float64 {
	return ps.coords[int(i)*ps.Dim : (int(i)+1)*ps.Dim]
}

// Coord returns coordinate d of point i.
func (ps *Set) Coord(i int32, d int) float64 {
	return ps.coords[int(i)*ps.Dim+d]
}

// SqDistTo returns the exact squared Euclidean distance from point i to q.
func (ps *Set) SqDistTo(i int32, q []float64) float64 {
	p := ps.At(i)
	var s float64
	for j, v := range q {
		d := p[j] - v
		s += d * d
	}
	return s
}

// GatherSqDists is the bulk form of SqDistTo: it fills out[j] with the
// exact squared distance from point ids[j] to q. out must have len(ids)
// elements.
func (ps *Set) GatherSqDists(ids []int32, q []float64, out []float64) {
	if len(out) != len(ids) {
		panic("points: GatherSqDists output length mismatch")
	}
	dim := ps.Dim
	for j, id := range ids {
		row := ps.coords[int(id)*dim : int(id)*dim+dim]
		var s float64
		for d, v := range q {
			dv := row[d] - v
			s += dv * dv
		}
		out[j] = s
	}
}

// GatherCoord is the bulk form of Coord: it fills out[j] with coordinate d
// of point ids[j]. out must have len(ids) elements. The root sort reads its
// keys through this, one dimension at a time.
func (ps *Set) GatherCoord(ids []int32, d int, out []float64) {
	if len(out) != len(ids) {
		panic("points: GatherCoord output length mismatch")
	}
	dim := ps.Dim
	for j, id := range ids {
		out[j] = ps.coords[int(id)*dim+d]
	}
}

// EnablePacked does nothing. It used to build a float32 mirror of the
// coordinates, which leaf pages made useless.
//
// Deprecated: the method survives only because bench/ladder.go calls it and
// bench/ was frozen when the mirror went; the next benchmark change drops
// the call and this with it.
func (ps *Set) EnablePacked() {}

// AppendWithin appends (sqDist, id) to dst for every given id whose exact
// squared distance to q is at most bound, preserving the order of ids: the
// scan of a pending element, whose points have no page.
func (ps *Set) AppendWithin(dst []Item, ids []int32, q []float64, bound float64) []Item {
	for _, id := range ids {
		if d := ps.SqDistTo(id, q); d <= bound {
			dst = append(dst, Item{D: d, Ref: id})
		}
	}
	return dst
}

// AppendPoint adds a point to the set and returns its id. The caller must
// Insert the id into any tree built over the set.
func (ps *Set) AppendPoint(coords []float64) int32 {
	if len(coords) != ps.Dim {
		panic(fmt.Sprintf("points: AppendPoint dimension %d, want %d", len(coords), ps.Dim))
	}
	id := int32(ps.N())
	ps.coords = append(ps.coords, coords...)
	return id
}

// BindAttr binds the named attribute column (indexed by point id, NaN for
// missing): a new name is registered after the others, a known one is
// re-bound, which is what its owner does after growing the column
// reallocated it. Contour elements lazily aggregate bound columns.
func (ps *Set) BindAttr(name string, col []float64) {
	if ai := ps.AttrIndex(name); ai >= 0 {
		ps.attrCols[ai] = col
		return
	}
	ps.attrNames = append(ps.attrNames, name)
	ps.attrCols = append(ps.attrCols, col)
}

// AttrNames returns a copy of the registered attribute names in
// registration order — the effective attribute list, which may exceed the
// build-time set once attributes were added dynamically.
func (ps *Set) AttrNames() []string {
	return append([]string(nil), ps.attrNames...)
}

// AttrIndex returns the registration index for attribute name, or -1.
func (ps *Set) AttrIndex(name string) int {
	for i, n := range ps.attrNames {
		if n == name {
			return i
		}
	}
	return -1
}

// AttrValue returns attribute ai of point id and whether it is present.
func (ps *Set) AttrValue(ai int, id int32) (float64, bool) {
	col := ps.attrCols[ai]
	if int(id) >= len(col) {
		return 0, false
	}
	v := col[id]
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// HasAttr reports whether point id bears attribute ai. A negative ai stands
// for no attribute in particular, which every point bears.
func (ps *Set) HasAttr(ai int, id int32) bool {
	if ai < 0 {
		return true
	}
	_, ok := ps.AttrValue(ai, id)
	return ok
}

// NumAttrs returns the number of registered attribute columns.
func (ps *Set) NumAttrs() int { return len(ps.attrNames) }

// AttrStats summarizes one registered attribute over a set of points.
type AttrStats struct {
	Count  int // points with the attribute present
	Min    float64
	Max    float64
	MaxAbs float64 // max |v|, the v_m statistic of Theorem 4
}

// Stats summarizes attribute ai over the points ids.
func (ps *Set) Stats(ai int, ids []int32) AttrStats {
	st := AttrStats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, id := range ids {
		v, ok := ps.AttrValue(ai, id)
		if !ok {
			continue
		}
		st.Count++
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
		if a := math.Abs(v); a > st.MaxAbs {
			st.MaxAbs = a
		}
	}
	return st
}
