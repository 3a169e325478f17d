package rtree

import "slices"

// partition is a contour element that has data but no child structure yet:
// the S sort orders of its point ids (S = dim, one per coordinate as the
// points are degenerate rectangles) and its MBR (set when the partition is
// created, grown by inserts). A crack or the bulk load cuts an element
// inside its own lists (split), which consumes it. Insert edits a
// partition in place.
type partition struct {
	orders [][]int32 // S sorted id lists; orders[s] sorted by coordinate s
	mbr    Rect
}

// newPartition builds the pending element over an explicit id set: its S
// sort orders (see rootsort.go) and its MBR. For a tree's root this is the
// only global sort the cracking index ever performs; it is part of the first
// query's cost, not an offline build.
func newPartition(ps *PointSet, ids []int32) *partition {
	return &partition{orders: sortedOrders(ps, ids), mbr: mbrOf(ps, ids)}
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

// split applies the choice bestSplit returned for this partition, in place:
// the first ch.pos ids of orders[ch.s] form the left half. All S sorted
// lists are split stably (SplitOnKey of Algorithm 1) inside their own
// memory, using the tree's scratch flag array to test membership in O(1).
// Order ch.s is already cut at pos; in every other, cutOrder compacts the
// left half's ids forward and writes the right half's to buf, which must
// hold n-pos+1 ids, and they are copied back behind the left half. The
// halves are capped views, orders[d][:pos:pos] and orders[d][pos:n:n], so
// an append to one (insertSorted) reallocates instead of writing into its
// neighbour. p is consumed. The halves take their MBRs from the choice.
func (p *partition) split(ch splitChoice, scratch []bool, buf []int32) (left, right *partition) {
	n, pos := p.count(), ch.pos
	if pos <= 0 || pos >= n {
		panic("rtree: split position out of range")
	}
	left = &partition{orders: make([][]int32, len(p.orders)), mbr: ch.mbrL}
	right = &partition{orders: make([][]int32, len(p.orders)), mbr: ch.mbrH}
	setFlags(scratch, p.orders[ch.s][:pos], true)
	for d, order := range p.orders {
		if d != ch.s {
			cutOrder(order, scratch, order, buf)
			copy(order[pos:], buf[:n-pos])
		}
		left.orders[d], right.orders[d] = order[:pos:pos], order[pos:n:n]
	}
	setFlags(scratch, p.orders[ch.s][:pos], false)
	return left, right
}

// setFlags sets the membership flag of every id to v.
func setFlags(flags []bool, ids []int32, v bool) {
	for _, id := range ids {
		flags[id] = v
	}
}

// cutOrder is the split kernel: it writes the ids of order flagged in in to
// lo and the others to hi, each in order's sequence. Which half an id goes
// to is a coin flip in every order but the one the boundary cuts, so the
// loop does not branch on it: every id is written to both destinations and
// only the cursor its flag selects advances. lo and hi each need one slot
// beyond their share for the write that does not count. lo may be order
// itself, as its cursor never passes the read position.
func cutOrder(order []int32, in []bool, lo, hi []int32) {
	i, j := 0, 0
	for _, id := range order {
		lo[i] = id
		hi[j] = id
		f := 0
		if in[id] {
			f = 1
		}
		i += f
		j += 1 - f
	}
}

// own copies the partition's lists into exact-size ones of its own, so
// that the element it was cut from, whose memory they are views of, can be
// collected.
func (p *partition) own() {
	for d, order := range p.orders {
		p.orders[d] = slices.Clone(order)
	}
}

// sizeBytes estimates the in-memory footprint of the partition: S id lists
// of 4 bytes per entry plus the MBR.
func (p *partition) sizeBytes(dim int) int {
	return len(p.orders)*p.count()*4 + 2*dim*8 + 48
}
