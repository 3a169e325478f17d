package rtree

// partition is a contour element that has data but no child structure yet:
// the S sort orders of its point ids (S = dim, one per coordinate as the
// points are degenerate rectangles) and its MBR (set when the partition is
// created, grown by inserts). Cracking never mutates a partition it has
// created, which lets the Top-kSplitsIndexBuild candidates share split
// results through a cache; only Insert and Delete edit one in place.
type partition struct {
	orders [][]int32 // S sorted id lists; orders[s] sorted by coordinate s
	mbr    Rect
}

// newPartition builds the pending element over an explicit id set: its S
// sort orders (see rootsort.go) and its MBR. For a tree's root this is the
// only global sort the cracking index ever performs; it is part of the first
// query's cost, not an offline build.
func newPartition(ps *PointSet, ids []int32) *partition {
	return &partition{orders: sortedOrders(ps, ids), mbr: ps.MBRof(ids)}
}

// count returns the number of points in the partition.
func (p *partition) count() int { return len(p.orders[0]) }

// ids returns one of the sorted id lists (callers that don't care about
// order use this as "the" id set). The slice is owned by the partition.
func (p *partition) ids() []int32 { return p.orders[0] }

// countInRect returns |Q ∩ e|: the number of the partition's points inside
// q. Only the stretch of an order whose coordinate lies within q's extent
// can hold them (qStretch); the narrowest of the S stretches is counted.
func (p *partition) countInRect(ps *PointSet, q Rect) int {
	if !p.mbr.Overlaps(q) {
		return 0
	}
	if q.ContainsRect(p.mbr) {
		return p.count()
	}
	s, from, to := 0, 0, p.count()
	for d, order := range p.orders {
		if a, b := qStretch(ps, order, d, q); b-a < to-from {
			s, from, to = d, a, b
		}
	}
	return countIn(ps, p.orders[s][from:to], q)
}

// split applies a choice bestSplits returned for this partition: the first
// ch.pos ids of orders[ch.s] form the left half. All S sorted lists are
// split stably (SplitOnKey of Algorithm 1), using the tree's scratch flag
// array to test membership in O(1); the halves take their MBRs from the
// choice.
func (p *partition) split(ch splitChoice, scratch []bool) (left, right *partition) {
	n := p.count()
	pos := ch.pos
	if pos <= 0 || pos >= n {
		panic("rtree: split position out of range")
	}
	leftIDs := p.orders[ch.s][:pos]
	for _, id := range leftIDs {
		scratch[id] = true
	}
	lo := make([][]int32, len(p.orders))
	hi := make([][]int32, len(p.orders))
	for d := range p.orders {
		l := make([]int32, 0, pos)
		h := make([]int32, 0, n-pos)
		for _, id := range p.orders[d] {
			if scratch[id] {
				l = append(l, id)
			} else {
				h = append(h, id)
			}
		}
		lo[d] = l
		hi[d] = h
	}
	for _, id := range leftIDs {
		scratch[id] = false
	}
	return &partition{orders: lo, mbr: ch.mbrL}, &partition{orders: hi, mbr: ch.mbrH}
}

// sizeBytes estimates the in-memory footprint of the partition: S id lists
// of 4 bytes per entry plus the MBR.
func (p *partition) sizeBytes(dim int) int {
	return len(p.orders)*p.count()*4 + 2*dim*8 + 48
}
