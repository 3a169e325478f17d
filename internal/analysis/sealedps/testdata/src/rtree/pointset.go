// Package rtree is a miniature of the real package: a sealed PointSet and
// leaf page whose layout only this file may touch.
package rtree

type PointSet struct {
	Dim int

	coords    []float64
	attrNames []string
	attrCols  [][]float64
}

// leafPage is a leaf's ids with a copy of their rows; xy is sealed, ids is
// not.
type leafPage struct {
	ids []int32
	xy  []float64
}

// ok: pointset.go is a home file; layout access is its job.
func (ps *PointSet) N() int { return len(ps.coords) / ps.Dim }

func (ps *PointSet) At(i int32) []float64 {
	return ps.coords[int(i)*ps.Dim : (int(i)+1)*ps.Dim]
}

func (ps *PointSet) SqDistTo(i int32, q []float64) float64 {
	p := ps.At(i)
	var s float64
	for j, v := range q {
		d := p[j] - v
		s += d * d
	}
	return s
}

func (ps *PointSet) AttrValue(ai int, id int32) (float64, bool) {
	col := ps.attrCols[ai]
	if int(id) >= len(col) {
		return 0, false
	}
	return col[id], true
}

// ok: the page kernel lives in the home file.
func (pg *leafPage) appendWithin(dst []float64, q []float64, bound float64) []float64 {
	xy := pg.xy
	for range pg.ids {
		var s float64
		for j, v := range q {
			d := xy[j] - v
			s += d * d
		}
		xy = xy[len(q):]
		if s <= bound {
			dst = append(dst, s)
		}
	}
	return dst
}
