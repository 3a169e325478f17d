package rtree

// Tree stands in for the index built over the point set; it lives outside
// the home files, so every layout touch below must be flagged.
type Tree struct {
	ps *PointSet
}

// bad: a kernel reading the raw rows pins the layout outside its seal.
func (t *Tree) scanDirect(q []float64) float64 {
	dim := t.ps.Dim
	row := t.ps.coords[:dim] // want `direct access to PointSet\.coords`
	var s float64
	for d, v := range q {
		dv := row[d] - v
		s += dv * dv
	}
	return s
}

// bad: bypassing AttrValue loses the NaN-missing convention.
func (t *Tree) attrDirect(ai int, id int32) float64 {
	return t.ps.attrCols[ai][id] // want `direct access to PointSet\.attrCols`
}

// bad: a second leaf kernel outside the seal can drift from SqDistTo's
// summation order and break bit-identical distances.
func scanPage(pg *leafPage, q []float64) float64 {
	var s float64
	for j, v := range q {
		d := pg.xy[j] - v // want `direct access to leafPage\.xy`
		s += d * d
	}
	return s
}

// ok: a page's ids are the leaf's entries, read all over the package.
func pageLen(pg *leafPage) int { return len(pg.ids) }

// ok: the page kernel is the supported leaf scan.
func scanPageKernel(pg *leafPage, q []float64) []float64 {
	return pg.appendWithin(nil, q, 1)
}

// ok: the accessor API is the supported surface.
func (t *Tree) scanAccessor(id int32, q []float64) float64 {
	return t.ps.SqDistTo(id, q)
}

// ok: a same-named field on an unrelated type is not the seal's business.
type rowCache struct {
	coords []float64
}

func (c *rowCache) first() float64 { return c.coords[0] }
