package rtree

import (
	"sort"
)

// This file implements the paper's stated future work (Section VIII):
// incremental updates on the partial index. The cracking structure makes
// insertion natural — a new point descends to a contour element; pending
// elements absorb it into their sort orders, and a leaf that overflows
// reverts to a pending element whose split is deferred until a query
// actually needs it, exactly in the cracking spirit.

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
	if t.deleted[id] {
		delete(t.deleted, id) // resurrecting a tombstone: already owned
	} else {
		t.owned++
	}
	t.insertAt(t.root, id)
}

func (t *Tree) insertAt(nd *node, id int32) {
	pt := t.ps.At(id)
	nd.mbr.Expand(pt) // an empty (inverted) MBR snaps to pt
	switch {
	case nd.isInternal():
		t.insertAt(chooseChild(nd.children, pt), id)
	case nd.isLeaf():
		t.arena.statsOf(nd).Store(nil)
		nd.leaf.add(t.ps, id)
		if len(nd.leaf.ids) > t.opt.LeafCap {
			// Overflow: revert to a pending element; the next query that
			// touches it will crack it with full cost-model context.
			nd.part = newPartition(t.ps, nd.leaf.ids)
			nd.dropPage()
		}
	default:
		t.arena.statsOf(nd).Store(nil)
		insertSorted(t.ps, nd.part, id)
	}
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

func enlargement(r Rect, pt []float64) float64 {
	grown := r.Clone()
	grown.Expand(pt)
	return grown.Volume() - r.Volume()
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
// aggregate that reads them. Like Insert and Delete it needs the tree
// exclusively. A point not in the PointSet yet has no element to refresh.
func (t *Tree) NoteAttr(id int32) {
	if t.root != nil && int(id) < t.ps.N() {
		pt := t.ps.At(id)
		at := Rect{Lo: pt, Hi: pt} // read-only, so it may alias the point
		t.root.eachElement(&at, func(nd *node) { t.arena.statsOf(nd).Store(nil) })
	}
}

// Delete removes point id from the index, returning whether it was found.
// MBRs are not shrunk (they stay conservative supersets, which preserves
// correctness); a later Crack rebuilds exact boxes for the touched region.
// The point's coordinates remain in the PointSet as an unreferenced
// tombstone. A leaf or pending element emptied by the removal is unlinked
// from its parent and its record returned to the node arena's freelist —
// with empty internal nodes pruned recursively — so churned regions recycle
// records instead of growing the arena.
func (t *Tree) Delete(id int32) bool {
	if t.root == nil || int(id) >= t.ps.N() {
		return false
	}
	pt := t.ps.At(id)
	// del reports (found, empty): whether the id was removed under nd, and
	// whether nd holds no points afterwards and should be pruned.
	var del func(nd *node) (bool, bool)
	del = func(nd *node) (bool, bool) {
		if !nd.mbr.Contains(pt) {
			return false, false
		}
		switch {
		case nd.isInternal():
			for i, c := range nd.children {
				found, empty := del(c)
				if !found {
					continue
				}
				if empty {
					nd.children = append(nd.children[:i], nd.children[i+1:]...)
					t.arena.release(c)
				}
				return true, len(nd.children) == 0
			}
			return false, false
		case nd.isLeaf():
			for i, v := range nd.leaf.ids {
				if v == id {
					t.arena.statsOf(nd).Store(nil)
					nd.leaf.remove(i)
					return true, len(nd.leaf.ids) == 0
				}
			}
			return false, false
		default:
			found := false
			for s, order := range nd.part.orders {
				for i, v := range order {
					if v == id {
						nd.part.orders[s] = append(order[:i], order[i+1:]...)
						found = true
						break
					}
				}
			}
			if found {
				t.arena.statsOf(nd).Store(nil)
			}
			return found, found && nd.part.count() == 0
		}
	}
	found, empty := del(t.root)
	if !found {
		return false
	}
	if empty {
		// The root is never released; an emptied tree reverts to the empty
		// leaf state NewCracking would produce over zero points.
		t.root.children = nil
		t.root.part = nil
		t.arena.setLeaf(t.root, t.ps, []int32{})
	}
	if t.deleted == nil {
		t.deleted = make(map[int32]bool)
	}
	t.deleted[id] = true
	return true
}
