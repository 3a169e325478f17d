package rtree

import (
	"fmt"
	"math"
)

// PointSet is the sealed flat store of all indexed points in S2. The
// backing layout is private to this file: point i's exact float64
// coordinates live at stride Dim in a row-major block. All access goes
// through the accessor API — At, Coord, GatherCoord, SqDistTo,
// GatherSqDists, AttrValue, HasAttr, and the scan appendWithin of the walk
// and of SummarizeBall over a pending element's ids — so the layout can
// change without touching callers; the point index doubles as the entity id.
// A leaf's points are also copied into its page (leafPage, below), which is
// what a leaf scan reads; the block stays the source of truth.
//
// Attribute columns (for aggregate queries) may be registered so that
// contour elements can expose count/min/max statistics, as the paper
// suggests for estimating v_m in Theorem 4.
type PointSet struct {
	Dim int

	coords []float64 // row-major exact coordinates, the source of truth

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

// gatherChunk is the batch size of the chunked gathers: big enough to
// amortize the per-chunk bookkeeping, small enough to live on the stack.
const gatherChunk = 128

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

// EnablePacked does nothing. It used to build a float32 mirror of the
// coordinates, which leaf pages made useless.
//
// Deprecated: the method survives only because bench/ladder.go calls it and
// bench/ was frozen when the mirror went; the next benchmark change drops
// the call and this with it.
func (ps *PointSet) EnablePacked() {}

// appendWithin appends (sqDist, id) to dst for every given id whose exact
// squared distance to q is at most bound, preserving the order of ids: the
// scan of a pending element, whose points have no page.
func (ps *PointSet) appendWithin(dst []walkItem, ids []int32, q []float64, bound float64) []walkItem {
	for _, id := range ids {
		if d := ps.SqDistTo(id, q); d <= bound {
			dst = append(dst, walkItem{d: d, ref: id})
		}
	}
	return dst
}

// leafPage is a leaf's entries kept together where a scan reads them, as an
// R-tree keeps a leaf's entries in the leaf's page: the point ids and, row i
// for ids[i], a copy of their exact coordinates. A page is derived data: it
// is rebuilt from the PointSet when a leaf is made or loaded, follows
// Insert and Delete, and is in no snapshot, WAL record or StructureHash.
// Only this file reads or writes xy.
type leafPage struct {
	ids []int32
	xy  []float64 // len(ids) rows of Dim coordinates
}

// fill makes the page hold ids, which it takes over, and their rows.
func (pg *leafPage) fill(ps *PointSet, ids []int32) {
	pg.ids = ids
	pg.xy = make([]float64, 0, len(ids)*ps.Dim)
	for _, id := range ids {
		pg.xy = append(pg.xy, ps.At(id)...)
	}
}

// add appends point id of ps to the page.
func (pg *leafPage) add(ps *PointSet, id int32) {
	pg.ids = append(pg.ids, id)
	pg.xy = append(pg.xy, ps.At(id)...)
}

// remove deletes entry i, keeping the order of the rest.
func (pg *leafPage) remove(i int) {
	dim := len(pg.xy) / len(pg.ids)
	pg.ids = append(pg.ids[:i], pg.ids[i+1:]...)
	pg.xy = append(pg.xy[:i*dim], pg.xy[(i+1)*dim:]...)
}

// sizeBytes is the heap memory the page holds beyond its header.
func (pg *leafPage) sizeBytes() int { return cap(pg.ids)*4 + cap(pg.xy)*8 }

// check reports a page whose rows are not exactly the points of its ids.
func (pg *leafPage) check(ps *PointSet) error {
	if len(pg.xy) != len(pg.ids)*ps.Dim {
		return fmt.Errorf("leaf page holds %d coordinates for %d ids of dimension %d", len(pg.xy), len(pg.ids), ps.Dim)
	}
	for i, id := range pg.ids {
		for d, v := range ps.At(id) {
			if got := pg.xy[i*ps.Dim+d]; math.Float64bits(got) != math.Float64bits(v) {
				return fmt.Errorf("leaf page row %d holds %v for coordinate %d of point %d, which is %v", i, got, d, id, v)
			}
		}
	}
	return nil
}

// appendWithin is PointSet.appendWithin over the page's entries: one
// sequential pass over the rows, each distance summed in SqDistTo's order
// and therefore bit-identical to it. This is the leaf scan of every walk.
func (pg *leafPage) appendWithin(dst []walkItem, q []float64, bound float64) []walkItem {
	xy := pg.xy
	for _, id := range pg.ids {
		row := xy[:len(q)]
		xy = xy[len(q):]
		var s float64
		for j, v := range q {
			d := row[j] - v
			s += d * d
		}
		if s <= bound {
			dst = append(dst, walkItem{d: s, ref: id})
		}
	}
	return dst
}

// AppendPoint adds a point to the PointSet and returns its id. The caller
// must Insert the id into any tree built over the set.
func (ps *PointSet) AppendPoint(coords []float64) int32 {
	if len(coords) != ps.Dim {
		panic(fmt.Sprintf("rtree: AppendPoint dimension %d, want %d", len(coords), ps.Dim))
	}
	id := int32(ps.N())
	ps.coords = append(ps.coords, coords...)
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
