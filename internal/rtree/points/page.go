package points

import (
	"fmt"
	"math"
	"slices"
)

// Item is one entry of a walk's frontier: a point (Ref is its id) or a
// node still to expand (Ref is ^its arena index, so negative), at squared
// distance D. Next links the items of one frontier bucket (1 + an index
// into the walk's slab, 0 ends the list); the scans below write items with
// Next 0.
type Item struct {
	D    float64
	Ref  int32
	Next int32
}

// Page is a leaf's entries kept together where a scan reads them, as an
// R-tree keeps a leaf's entries in the leaf's page: the point ids and, row
// i for ids[i], a copy of their exact coordinates. A page is derived data:
// it is rebuilt from the Set when a leaf is made or loaded, follows
// Insert, and is in no snapshot, WAL record or StructureHash. The zero
// Page is empty.
type Page struct {
	ids []int32
	xy  []float64 // len(ids) rows of Dim coordinates
}

// Fill makes the page hold ids, which it takes over, and their rows.
func (pg *Page) Fill(ps *Set, ids []int32) {
	pg.ids = ids
	pg.xy = make([]float64, 0, len(ids)*ps.Dim)
	for _, id := range ids {
		pg.xy = append(pg.xy, ps.At(id)...)
	}
}

// Add appends point id of ps to the page.
func (pg *Page) Add(ps *Set, id int32) {
	pg.ids = append(pg.ids, id)
	pg.xy = append(pg.xy, ps.At(id)...)
}

// IDs returns the page's point ids; the slice must not be modified.
func (pg *Page) IDs() []int32 { return pg.ids }

// SizeBytes is the heap memory the page holds beyond its header.
func (pg *Page) SizeBytes() int { return cap(pg.ids)*4 + cap(pg.xy)*8 }

// Check reports a page whose rows are not exactly the points of its ids.
func (pg *Page) Check(ps *Set) error {
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

// AppendWithin is Set.AppendWithin over the page's entries: one sequential
// pass over the rows, each distance summed in SqDistTo's order and
// therefore bit-identical to it. This is the leaf scan of every walk.
// Whether a row is in bound is a coin flip the branch predictor loses, so
// the loop does not branch on it: dst grows by the page once, every row is
// written behind the kept ones, and the cursor advances by the comparison.
func (pg *Page) AppendWithin(dst []Item, q []float64, bound float64) []Item {
	n, dim, xy := len(dst), len(q), pg.xy
	out := slices.Grow(dst, len(pg.ids))[:n+len(pg.ids)]
	for i, id := range pg.ids {
		var s float64
		for j, v := range xy[i*dim : i*dim+dim] {
			d := v - q[j]
			s += d * d
		}
		out[n] = Item{D: s, Ref: id}
		in := 0
		if s <= bound {
			in = 1
		}
		n += in
	}
	return out[:n]
}
