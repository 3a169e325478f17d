package rtree

import (
	"math"
	"slices"
)

// BallStats is what one unordered descent learns about the points of
// B(center, radius) bearing an attribute: it accounts for the part of the
// ball an aggregate does not access without ordering or storing a point.
type BallStats struct {
	// Count is the number of points inside the ball (squared distance at
	// most radius², the walks' test) that bear the attribute.
	Count int
	// MaxAbs is the largest |value| in any contour element whose MBR meets
	// the ball's bounding box: the v_m of Theorem 4.
	MaxAbs float64
	// Min and Max are the attribute's extrema over the contour elements that
	// lie wholly inside the ball, all of whose points certainly belong to
	// it; +Inf and -Inf when there is no such element.
	Min, Max float64
}

// SummarizeBall computes the BallStats of B(center, radius) over a tree
// that is Ready and held at least shared. attr is a registered attribute
// index, or negative to count every point (MaxAbs, Min
// and Max then stay empty).
//
// An element wholly inside the ball is read from its cached statistics; the
// points of an element the sphere cuts are scanned, unordered, with the
// walks' own scans (a leaf's page, a pending element's ids). A non-nil each
// receives every counted point with its squared distance, so the elements
// inside are scanned as well.
func (t *Tree) SummarizeBall(center []float64, radius float64, attr int, each func(id int32, sqDist float64)) BallStats {
	t.ensureRoot()
	s := ballScan{
		ps: t.ps, arena: t.arena, f: frontierPool.Get().(*frontier),
		center: center, box: BallRect(center, radius), rsq: radius * radius,
		attr: attr, each: each, out: BallStats{Min: math.Inf(1), Max: math.Inf(-1)},
	}
	s.visit(t.root)
	s.f.release(t.access)
	return s.out
}

// ballScan is the state of one SummarizeBall descent. The pooled frontier
// lends its point scratch and its node-access counts.
type ballScan struct {
	ps     *PointSet
	arena  *nodeArena
	f      *frontier
	center []float64
	box    Rect
	rsq    float64
	attr   int
	each   func(id int32, sqDist float64)
	out    BallStats
}

func (s *ballScan) visit(nd *node) {
	if !nd.mbr.Overlaps(s.box) {
		return
	}
	switch {
	case nd.isInternal():
		s.f.accIn++
		for _, c := range nd.children {
			s.visit(c)
		}
		return
	case nd.isLeaf():
		s.f.accLf++
	default:
		s.f.accPd++
	}
	inside := nd.mbr.MaxSqDist(s.center) <= s.rsq
	if s.attr >= 0 {
		st := s.arena.attrStats(s.ps, nd)[s.attr]
		if st.Count == 0 {
			return
		}
		s.out.MaxAbs = max(s.out.MaxAbs, st.MaxAbs)
		if inside {
			s.out.Min, s.out.Max = min(s.out.Min, st.Min), max(s.out.Max, st.Max)
			if s.each == nil {
				s.out.Count += st.Count
				return
			}
		}
	}
	if !inside && nd.mbr.MinSqDist(s.center) > s.rsq {
		return // meets the bounding box at a corner the ball does not reach
	}
	if nd.isLeaf() {
		s.f.pts = nd.leaf.appendWithin(slices.Grow(s.f.pts[:0], len(nd.leaf.ids)), s.center, s.rsq)
		s.count()
		return
	}
	// Scan in chunks the scratch can hold and still go back to the pool: a
	// cold index's pending root can be every point.
	for ids := nd.part.ids(); len(ids) > 0; ids = ids[min(len(ids), maxPooledPoints):] {
		chunk := ids[:min(len(ids), maxPooledPoints)]
		s.f.pts = s.ps.appendWithin(slices.Grow(s.f.pts[:0], len(chunk)), chunk, s.center, s.rsq)
		s.count()
	}
}

// count adds the scanned points in the scratch that bear the attribute.
func (s *ballScan) count() {
	for _, p := range s.f.pts {
		if !s.ps.HasAttr(s.attr, p.id) {
			continue
		}
		s.out.Count++
		if s.each != nil {
			s.each(p.id, p.d)
		}
	}
}

// attrStats returns the per-attribute statistics of the contour element nd,
// computing and caching them on first use (so index-only workloads store
// none). A cache older than the newest registered attribute is rebuilt.
func (a *nodeArena) attrStats(ps *PointSet, nd *node) []AttrStats {
	slot := a.statsOf(nd)
	if p := slot.Load(); p != nil && len(*p) >= ps.NumAttrs() {
		return *p
	}
	st := make([]AttrStats, ps.NumAttrs())
	for ai := range st {
		st[ai] = ps.attrStats(ai, nd.ids())
	}
	slot.Store(&st)
	return st
}
