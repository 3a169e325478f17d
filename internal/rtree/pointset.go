package rtree

import (
	"fmt"
	"math"
)

// PointSet is the sealed flat store of all indexed points in S2. The
// backing layout is private: point i's exact float64 coordinates live at
// stride Dim in a row-major block, optionally mirrored by packed float32
// columns (see packed.go) that the distance kernels use as a conservative
// prefilter. All access goes through the accessor API — At, Coord,
// GatherCoord, SqDistTo, GatherSqDists, AttrValue, HasAttr, and the leaf
// scan appendWithin of the walk and of SummarizeBall — so the layout can
// change without touching callers; the point index doubles as the entity id.
//
// Attribute columns (for aggregate queries) may be registered so that
// contour elements can expose count/min/max statistics, as the paper
// suggests for estimating v_m in Theorem 4.
type PointSet struct {
	Dim int

	coords []float64 // row-major exact coordinates, the source of truth

	// packed, when non-nil, mirrors coords as contiguous per-dimension
	// float32 columns used only to skip points provably outside a distance
	// bound; every reported distance is re-ranked in exact float64
	// arithmetic, so enabling it never changes an answer.
	packed *packedCols

	attrNames []string
	attrCols  [][]float64 // parallel to attrNames; indexed by point id
}

// NewPointSet wraps row-major coordinates (stride dim) as a point set.
func NewPointSet(dim int, coords []float64) *PointSet {
	if dim <= 0 {
		panic(fmt.Sprintf("rtree: invalid dimension %d", dim))
	}
	if len(coords)%dim != 0 {
		panic("rtree: coords length is not a multiple of dim")
	}
	return &PointSet{Dim: dim, coords: coords}
}

// N returns the number of points.
func (ps *PointSet) N() int { return len(ps.coords) / ps.Dim }

// At returns a view of point i's coordinates; the slice must not be
// modified.
func (ps *PointSet) At(i int32) []float64 {
	return ps.coords[int(i)*ps.Dim : (int(i)+1)*ps.Dim]
}

// Coord returns coordinate d of point i.
func (ps *PointSet) Coord(i int32, d int) float64 {
	return ps.coords[int(i)*ps.Dim+d]
}

// SqDistTo returns the exact squared Euclidean distance from point i to q.
func (ps *PointSet) SqDistTo(i int32, q []float64) float64 {
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
// elements. Callers that need many distances at once (leaf scans, seed
// ranking) use this instead of indexing the backing store themselves.
func (ps *PointSet) GatherSqDists(ids []int32, q []float64, out []float64) {
	if len(out) != len(ids) {
		panic("rtree: GatherSqDists output length mismatch")
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
func (ps *PointSet) GatherCoord(ids []int32, d int, out []float64) {
	if len(out) != len(ids) {
		panic("rtree: GatherCoord output length mismatch")
	}
	dim := ps.Dim
	for j, id := range ids {
		out[j] = ps.coords[int(id)*dim+d]
	}
}

// AppendPoint adds a point to the PointSet and returns its id. The caller
// must Insert the id into any tree built over the set.
func (ps *PointSet) AppendPoint(coords []float64) int32 {
	if len(coords) != ps.Dim {
		panic(fmt.Sprintf("rtree: AppendPoint dimension %d, want %d", len(coords), ps.Dim))
	}
	id := int32(ps.N())
	ps.coords = append(ps.coords, coords...)
	if ps.packed != nil {
		ps.packed.appendPoint(coords)
	}
	return id
}

// RegisterAttr attaches a named attribute column (indexed by point id, NaN
// for missing). Contour elements lazily aggregate registered columns.
func (ps *PointSet) RegisterAttr(name string, col []float64) {
	ps.attrNames = append(ps.attrNames, name)
	ps.attrCols = append(ps.attrCols, col)
}

// RefreshAttr re-binds a registered attribute column (needed when the
// owning graph reallocated the column while growing it). It reports whether
// the name was registered; a false return means the caller is holding a
// column the point set has never seen and must RegisterAttr it to make the
// attribute queryable.
func (ps *PointSet) RefreshAttr(name string, col []float64) bool {
	for i, n := range ps.attrNames {
		if n == name {
			ps.attrCols[i] = col
			return true
		}
	}
	return false
}

// AttrNames returns a copy of the registered attribute names in
// registration order — the effective attribute list, which may exceed the
// build-time set once attributes were added dynamically.
func (ps *PointSet) AttrNames() []string {
	return append([]string(nil), ps.attrNames...)
}

// AttrIndex returns the registration index for attribute name, or -1.
func (ps *PointSet) AttrIndex(name string) int {
	for i, n := range ps.attrNames {
		if n == name {
			return i
		}
	}
	return -1
}

// AttrValue returns attribute ai of point id and whether it is present.
func (ps *PointSet) AttrValue(ai int, id int32) (float64, bool) {
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
func (ps *PointSet) HasAttr(ai int, id int32) bool {
	if ai < 0 {
		return true
	}
	_, ok := ps.AttrValue(ai, id)
	return ok
}

// NumAttrs returns the number of registered attribute columns.
func (ps *PointSet) NumAttrs() int { return len(ps.attrNames) }

// MBRof computes the minimum bounding rectangle of the given point ids.
func (ps *PointSet) MBRof(ids []int32) Rect {
	r := EmptyRect(ps.Dim)
	for _, id := range ids {
		r.Expand(ps.At(id))
	}
	return r
}

// AttrStats summarizes one registered attribute over a set of points.
type AttrStats struct {
	Count  int // points with the attribute present
	Min    float64
	Max    float64
	MaxAbs float64 // max |v|, the v_m statistic of Theorem 4
}

func (ps *PointSet) attrStats(ai int, ids []int32) AttrStats {
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
