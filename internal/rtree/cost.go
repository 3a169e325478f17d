package rtree

// splitChoice is one candidate binary split of a partition: boundary
// position pos of sort order s, with its query cost cq (Section IV-B1; the
// overlap term c_O is zero for every candidate, see bestSplit).
type splitChoice struct {
	s, pos int
	cq     int // ceil(|Q∩L|/N) + ceil(|Q∩H|/N); 0 when no query region

	// Filled in for the choice bestSplit returns: the MBRs of the two
	// halves and |Q∩L|, |Q∩H| (0 when no query region). Whoever applies the
	// split installs them on the halves instead of rescanning the points.
	mbrL, mbrH Rect
	qL, qH     int
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// bestSplit implements BestBinarySplit of Algorithm 1: it evaluates the
// M-1 equally spaced boundary positions in every sort order and returns the
// cheapest split, with its halves' MBRs and query-region counts; ok is
// false when p has no boundary at chunk size m. Ties go to the lowest
// (s, pos). total is |Q ∩ p|, which every caller already holds. q may be
// nil (bulk loading, total 0), in which case cQ is 0 for every candidate.
//
// The paper's minor cost, the overlap c_O of the halves' boxes, is zero for
// every candidate on point data: a boundary cuts an order sorted by
// coordinate s, so the left half's Hi[s] is at most the right half's Lo[s],
// and the volume of the boxes' intersection is 0 as soon as hi <= lo in one
// dimension. The
// ranking is therefore (cQ, s, pos), and cQ needs only counts: in the
// order sorted by s, the points of Q lie in the stretch [qa, qb) whose
// coordinate s is within Q's extent (two binary searches), so a boundary
// at or before qa has |Q∩L| = 0, one at or after qb has |Q∩L| = total, and
// only the boundaries inside the stretch are counted, incrementally. No
// split costs less than ceil(total/N), so the scan stops at the first
// (s, pos) that costs that much. Boxes are computed for the winner's
// halves only (halfBoxes).
func bestSplit(ps *PointSet, p *partition, m int, q *Rect, total, leafCap int) (best splitChoice, ok bool) {
	n := p.count()
	nb := ceilDiv(n, m) - 1 // boundary count per order
	if nb <= 0 {
		return best, false
	}
	floor := ceilDiv(total, leafCap)
	best.cq = -1
scan:
	for s, order := range p.orders {
		qa, qb := 0, 0
		if q != nil {
			qa, qb = qStretch(ps, order, s, *q)
		}
		at, qL := qa, 0 // qL counts Q's points in order[qa:at]
		for b := 0; b < nb; b++ {
			pos := (b + 1) * m
			ch := splitChoice{s: s, pos: pos}
			if q != nil {
				switch {
				case pos <= qa:
				case pos >= qb:
					qL = total
				default:
					qL += countIn(ps, order[at:pos], *q)
					at = pos
				}
				ch.qL, ch.qH = qL, total-qL
				ch.cq = ceilDiv(qL, leafCap) + ceilDiv(total-qL, leafCap)
			}
			if best.cq < 0 || ch.cq < best.cq {
				best = ch
				if ch.cq == floor {
					break scan
				}
			}
		}
	}
	best.mbrL, best.mbrH = halfBoxes(ps, p, best.s, best.pos, make([]float64, 4*ps.Dim))
	return best, true
}

// qStretch returns the stretch [qa, qb) of an order sorted by coordinate s
// whose coordinate s lies within q's extent: the only positions that can
// hold points of q.
func qStretch(ps *PointSet, order []int32, s int, q Rect) (qa, qb int) {
	lo, hi := q.Lo[s], q.Hi[s]
	qa, j := 0, len(order)
	for qa < j { // first position with coordinate >= lo
		h := int(uint(qa+j) >> 1)
		if ps.Coord(order[h], s) < lo {
			qa = h + 1
		} else {
			j = h
		}
	}
	qb, j = qa, len(order)
	for qb < j { // first position with coordinate > hi
		h := int(uint(qb+j) >> 1)
		if ps.Coord(order[h], s) <= hi {
			qb = h + 1
		} else {
			j = h
		}
	}
	return qa, qb
}

// halfBoxes returns the MBRs of the two halves a split at position pos of
// order s0 makes, carved from slab (4*Dim values). In dimension s0 a half's
// bounds are its ends in order s0. In any other dimension d they are the
// coordinates of the first and the last id of order d that lie in the half
// (cut.ends): a walk of O(n) steps at worst, no more than a scan of the
// half's points. A zero bound may be either sign of zero; boxes are
// compared and hashed by value.
func halfBoxes(ps *PointSet, p *partition, s0, pos int, slab []float64) (l, h Rect) {
	dim := ps.Dim
	l = Rect{Lo: slab[0:dim:dim], Hi: slab[dim : 2*dim : 2*dim]}
	h = Rect{Lo: slab[2*dim : 3*dim : 3*dim], Hi: slab[3*dim : 4*dim : 4*dim]}
	order := p.orders[s0]
	c := cut{ps: ps, s0: s0, id: order[pos], key: sortKey(ps.Coord(order[pos], s0))}
	for d, od := range p.orders {
		if d == s0 {
			l.Lo[d], l.Hi[d] = ps.Coord(order[0], d), ps.Coord(order[pos-1], d)
			h.Lo[d], h.Hi[d] = ps.Coord(order[pos], d), ps.Coord(order[len(order)-1], d)
			continue
		}
		l.Lo[d], h.Lo[d] = c.ends(od, d, 0, 1)
		l.Hi[d], h.Hi[d] = c.ends(od, d, len(od)-1, -1)
	}
	return l, h
}

// cut is the boundary of a split of order s0: a point lies in the left half
// when its (sortKey of coordinate s0, id) is below (key, id), the key order
// s0 is sorted by.
type cut struct {
	ps  *PointSet
	s0  int
	key uint64
	id  int32
}

func (c cut) left(id int32) bool {
	k := sortKey(c.ps.Coord(id, c.s0))
	return k < c.key || k == c.key && id < c.id
}

// ends walks order od from position i in steps of step and returns
// coordinate d of the first id it meets in the left half and of the first
// it meets in the right half. Both halves are non-empty.
func (c cut) ends(od []int32, d, i, step int) (vl, vh float64) {
	okL, okH := false, false
	for ; !okL || !okH; i += step {
		id := od[i]
		if c.left(id) {
			if !okL {
				vl, okL = c.ps.Coord(id, d), true
			}
		} else if !okH {
			vh, okH = c.ps.Coord(id, d), true
		}
	}
	return vl, vh
}

// countIn counts the ids whose points fall inside q.
func countIn(ps *PointSet, ids []int32, q Rect) int {
	dim := len(q.Lo)
	qlo, qhi := q.Lo, q.Hi[:dim]
	cnt := 0
	for _, id := range ids {
		pt := ps.At(id)[:dim]
		in := 1
		for d := 0; d < dim; d++ {
			// Two plain assignments compile to conditional moves; an early
			// exit here is a branch the predictor loses half the time in
			// every order but the one sorted by this coordinate.
			if pt[d] < qlo[d] {
				in = 0
			}
			if pt[d] > qhi[d] {
				in = 0
			}
		}
		cnt += in
	}
	return cnt
}
