package rtree

import (
	"math"
	"sort"
)

// splitChoice is one candidate binary split of a partition: boundary
// position pos of sort order s, with its two-component cost. Costs are
// compared lexicographically with cQ as the major order and cO as the
// secondary order (Section IV-B1).
type splitChoice struct {
	s, pos int
	cq     int     // ceil(|Q∩L|/N) + ceil(|Q∩H|/N); 0 when no query region
	co     float64 // beta^h * ||O|| / min(||L||, ||H||)

	// Filled in for the choices bestSplits returns: the MBRs of the two
	// halves and |Q∩L|, |Q∩H| (0 when no query region). The split
	// evaluation has them anyway; whoever applies the split installs them
	// on the halves instead of rescanning the points.
	mbrL, mbrH Rect
	qL, qH     int
}

func (a splitChoice) less(b splitChoice) bool {
	if a.cq != b.cq {
		return a.cq < b.cq
	}
	if a.co != b.co {
		return a.co < b.co
	}
	if a.s != b.s {
		return a.s < b.s
	}
	return a.pos < b.pos
}

func ceilDiv(a, b int) int {
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// bestSplits implements BestBinarySplit of Algorithm 1 with the revised
// two-component cost model: it evaluates the M-1 equally spaced boundary
// positions in every sort order and returns the topK cheapest splits,
// cheapest first, each with its halves' MBRs and query-region counts. q may
// be nil (bulk loading), in which case cQ is 0 for every candidate and only
// the overlap cost discriminates.
//
// h is the estimated R-tree height at which the split happens, used for the
// beta^h overlap weighting.
//
// The nb boundaries of an order cut it into nb+1 chunks. One pass over the
// order computes every chunk's MBR and query-region count together; the
// prefix box F and suffix box B at a boundary (ComputeBoundingBoxes) are
// then unions of chunk boxes, and the prefix count a sum of chunk counts.
// A union of min/max boxes is the min/max over all their points, so F, B
// and the costs are the ones a point-by-point sweep would produce.
func bestSplits(ps *PointSet, p *partition, m int, q *Rect, beta float64, leafCap, h, topK int) []splitChoice {
	n := p.count()
	nb := ceilDiv(n, m) - 1 // boundary count per order
	if nb <= 0 {
		return nil
	}
	s, dim, nc := len(p.orders), ps.Dim, nb+1
	betaH := math.Pow(beta, float64(h))

	// Boxes live in one slab, lo then hi: the s*nc chunk boxes (kept for
	// every order, to rebuild the winners' halves at the end), the nb
	// suffix boxes of the order being evaluated, and the running prefix.
	slab := make([]float64, (s*nc+nb+1)*2*dim)
	box := func(i int) Rect {
		o := i * 2 * dim
		return Rect{Lo: slab[o : o+dim : o+dim], Hi: slab[o+dim : o+2*dim : o+2*dim]}
	}
	backs, front := s*nc, s*nc+nb
	counts := make([]int, s*nc)
	choices := make([]splitChoice, 0, s*nb)

	for so, order := range p.orders {
		chunk0 := so * nc
		// Only the stretch of the order whose coordinate so lies within q's
		// extent can hold points of q; the rest just grows its chunk's box.
		qa, qb := 0, 0
		if q != nil {
			qa = sort.Search(n, func(i int) bool { return ps.Coord(order[i], so) >= q.Lo[so] })
			qb = qa + sort.Search(n-qa, func(i int) bool { return ps.Coord(order[qa+i], so) > q.Hi[so] })
		}
		totalQ := 0
		for c := 0; c < nc; c++ {
			from, to := c*m, min((c+1)*m, n)
			a, b := min(max(qa, from), to), min(max(qb, from), to)
			bx := box(chunk0 + c)
			bx.reset()
			growBox(ps, order[from:a], nil, bx)
			cnt := growBox(ps, order[a:b], q, bx)
			growBox(ps, order[b:to], nil, bx)
			counts[chunk0+c] = cnt
			totalQ += cnt
		}
		for b := nb - 1; b >= 0; b-- {
			bk := box(backs + b)
			bk.set(box(chunk0 + b + 1))
			if b+1 < nb {
				bk.ExpandRect(box(backs + b + 1))
			}
		}
		f := box(front)
		f.set(box(chunk0))
		qL := 0
		for b := 0; b < nb; b++ {
			if b > 0 {
				f.ExpandRect(box(chunk0 + b))
			}
			qL += counts[chunk0+b]
			ch := splitChoice{s: so, pos: (b + 1) * m}
			if q != nil {
				ch.cq = ceilDiv(qL, leafCap) + ceilDiv(totalQ-qL, leafCap)
			}
			bk := box(backs + b)
			overlap := f.OverlapVolume(bk)
			minVol := math.Min(f.Volume(), bk.Volume())
			if overlap > 0 && minVol > 0 {
				ch.co = betaH * overlap / minVol
			}
			choices = append(choices, ch)
		}
	}

	// The cheapest topK, in order: less is a total order, so selecting them
	// one by one gives the prefix a full sort would.
	topK = min(topK, len(choices))
	for i := 0; i < topK; i++ {
		best := i
		for j := i + 1; j < len(choices); j++ {
			if choices[j].less(choices[best]) {
				best = j
			}
		}
		choices[i], choices[best] = choices[best], choices[i]
	}
	choices = choices[:topK]
	for i := range choices {
		ch := &choices[i]
		chunk0, cut := ch.s*nc, ch.pos/m
		ch.mbrL, ch.mbrH = EmptyRect(dim), EmptyRect(dim)
		for c := 0; c < nc; c++ {
			if c < cut {
				ch.mbrL.ExpandRect(box(chunk0 + c))
				ch.qL += counts[chunk0+c]
			} else {
				ch.mbrH.ExpandRect(box(chunk0 + c))
				ch.qH += counts[chunk0+c]
			}
		}
	}
	return choices
}

// growBox expands box to cover the given points and returns how many of them
// lie inside q (0 when q is nil).
func growBox(ps *PointSet, ids []int32, q *Rect, box Rect) int {
	// Same-length local views let the compiler drop the bounds checks of
	// the inner loops, which is most of what a point costs here.
	dim := len(box.Lo)
	lo, hi := box.Lo, box.Hi[:dim]
	if q == nil {
		// box.Expand per point would do; hoisting its slice views out of
		// the id loop is worth a quarter of a crack's split evaluation.
		for _, id := range ids {
			pt := ps.At(id)[:dim]
			for d := 0; d < dim; d++ {
				v := pt[d]
				if v < lo[d] {
					lo[d] = v
				}
				if v > hi[d] {
					hi[d] = v
				}
			}
		}
		return 0
	}
	qlo, qhi := q.Lo[:dim], q.Hi[:dim]
	cnt := 0
	for _, id := range ids {
		pt := ps.At(id)[:dim]
		in := 1
		for d := 0; d < dim; d++ {
			v := pt[d]
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
			// Two plain assignments compile to conditional moves; an
			// early exit here is a branch the predictor loses half the
			// time in every order but the one sorted by this coordinate.
			if v < qlo[d] {
				in = 0
			}
			if v > qhi[d] {
				in = 0
			}
		}
		cnt += in
	}
	return cnt
}

// estHeight estimates the R-tree height at which an n-point chunk sits:
// ceil(log_M(n/N)), the height BulkLoadChunk would assign it.
func estHeight(n, leafCap, fanout int) int {
	if n <= leafCap {
		return 0
	}
	h := 0
	for c := float64(n) / float64(leafCap); c > 1; c /= float64(fanout) {
		h++
	}
	return h
}
