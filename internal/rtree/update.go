package rtree

import (
	"sort"
)

// This file implements the paper's stated future work (Section VIII):
// incremental updates on the partial index. They are insert-only: nothing
// removes a point, so every box stays the exact box of the points below
// it. The cracking structure makes insertion natural — a new point
// descends to a contour element; pending elements absorb it into their
// sort orders, and a leaf that overflows reverts to a pending element
// whose split is deferred until a query actually needs it, exactly in the
// cracking spirit.

// Insert adds point id (already appended to the PointSet) to the index.
// The point descends along least-enlargement children as in a classical
// R-tree insert; pending elements splice it into their sort orders; a leaf
// that overflows becomes a pending element again, deferring its split to
// the next query that cares (the cracking discipline applied to updates).
func (t *Tree) Insert(id int32) {
	t.ensureRoot()
	for int(id) >= len(t.scratch) {
		t.scratch = append(t.scratch, false)
	}
	t.insertAt(t.root, id)
}

// insertAt adds id below nd and returns the change to nd's pending count:
// 1 when a leaf on the path overflowed into a pending element.
func (t *Tree) insertAt(nd *node, id int32) int32 {
	pt := t.ps.At(id)
	nd.mbr.Expand(pt) // an empty (inverted) MBR snaps to pt
	switch {
	case nd.isInternal():
		delta := t.insertAt(chooseChild(nd.children, pt), id)
		nd.pending += delta
		return delta
	case nd.isLeaf():
		t.arena.statsOf(nd).Store(nil)
		nd.leaf.Add(t.ps, id)
		if len(nd.leaf.IDs()) > t.opt.LeafCap {
			// Overflow: revert to a pending element; the next query that
			// touches it will crack it with full cost-model context.
			nd.part = newPartition(t.ps, nd.leaf.IDs())
			nd.dropPage()
			nd.pending = 1
			return 1
		}
	default:
		t.arena.statsOf(nd).Store(nil)
		insertSorted(t.ps, nd.part, id)
	}
	return 0
}

// chooseChild picks the child whose MBR needs the least volume enlargement
// to absorb pt (ties: smaller volume, then first).
func chooseChild(children []*node, pt []float64) *node {
	best := children[0]
	bestEnl, bestVol := enlargement(best.mbr, pt), best.mbr.Volume()
	for _, c := range children[1:] {
		enl := enlargement(c.mbr, pt)
		vol := c.mbr.Volume()
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = c, enl, vol
		}
	}
	return best
}

// enlargement is the growth of r's volume when it absorbs pt: the Volume
// of r.Expand(pt) minus r's, computed in place with the same per-axis
// arithmetic, so an Insert's descent allocates nothing.
func enlargement(r Rect, pt []float64) float64 {
	grown := 1.0
	for i, v := range pt {
		lo, hi := r.Lo[i], r.Hi[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		side := hi - lo
		if side < 0 {
			grown = 0
			break
		}
		grown *= side
	}
	return grown - r.Volume()
}

// insertSorted splices id into every sort order of a pending partition.
func insertSorted(ps *PointSet, p *partition, id int32) {
	for s, order := range p.orders {
		v := ps.Coord(id, s)
		pos := sort.Search(len(order), func(i int) bool {
			ov := ps.Coord(order[i], s)
			if ov != v {
				return ov > v
			}
			return order[i] >= id
		})
		order = append(order, 0)
		copy(order[pos+1:], order[pos:])
		order[pos] = id
		p.orders[s] = order
	}
	p.mbr.Expand(ps.At(id))
}

// NoteAttr tells the index that an attribute value of point id changed: the
// cached statistics of every contour element whose MBR contains the point —
// the one holding it among them — are dropped and recomputed by the next
// aggregate that reads them. Like Insert it needs the tree exclusively. A
// point not in the PointSet yet has no element to refresh.
func (t *Tree) NoteAttr(id int32) {
	if t.root != nil && int(id) < t.ps.N() {
		pt := t.ps.At(id)
		at := Rect{Lo: pt, Hi: pt} // read-only, so it may alias the point
		t.root.eachElement(&at, func(nd *node) { t.arena.statsOf(nd).Store(nil) })
	}
}
