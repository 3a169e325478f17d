package rtree

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
	"unsafe"
)

// Options configure the index. The zero value is usable: defaults are
// filled in by normalize.
type Options struct {
	// LeafCap is N, the maximum number of point entries per leaf node.
	LeafCap int
	// Fanout is M, the maximum number of children per internal node.
	Fanout int
}

// DefaultOptions returns the parameters used throughout the experiments.
func DefaultOptions() Options {
	return Options{LeafCap: 32, Fanout: 8}
}

func (o Options) normalize() Options {
	if o.LeafCap <= 0 {
		o.LeafCap = 32
	}
	if o.Fanout < 2 {
		o.Fanout = 8
	}
	return o
}

// Tree is the spatial index over a PointSet in S2. A Tree is either created
// cracking (NewCracking: a lazy root, shaped online by Crack calls) or
// bulk-loaded (NewBulkLoaded: the full Algorithm 1 build).
//
// Tree is not itself synchronized, but it is built to slot under a
// reader/writer lock: once Prepare has materialized the root, every
// traversal (Search, WalkWithin, SummarizeBall, Stats, Save, NeedsCrack) is
// read-only and safe to run concurrently with other readers, while Crack,
// Insert and NoteAttr write to the tree and must be exclusive. NeedsCrack
// is the read-side probe that tells callers whether a Crack for a query
// region would actually change anything, so warm query regions never need
// the exclusive lock. NoteQuery is the lock-free way to count a query whose
// Crack was skipped.
type Tree struct {
	ps      *PointSet
	opt     Options
	root    *node
	arena   *nodeArena // slab storage for every node of this tree
	scratch []bool     // point-id membership flags reused by splits
	cutBuf  []int32    // a split's right half while it is cut in place

	splits  int          // binary splits applied to the tree
	queries atomic.Int64 // query count (Crack invocations + NoteQuery calls)

	// access, when set, receives node-access counts from WalkWithin (see
	// AccessCounters).
	access *AccessCounters

	// initialN is the PointSet size when the tree was created; the lazy
	// root covers exactly these points, and anything appended later enters
	// only through Insert.
	initialN int
}

// NewCracking returns a cracking index over all points whose root is still
// lazy. Construction is O(1): even the root's S sort orders are built by
// the first operation, so there is no offline index building time at all —
// the first query pays the setup, as in the paper's Figure 3.
func NewCracking(ps *PointSet, opt Options) *Tree {
	opt = opt.normalize()
	return &Tree{ps: ps, opt: opt, arena: newNodeArena(ps.Dim),
		scratch: make([]bool, ps.N()), initialN: ps.N()}
}

// ensureRoot materializes the root on first use.
func (t *Tree) ensureRoot() {
	if t.root == nil {
		t.buildRoot()
	}
}

// Ready reports whether the root has been materialized. Until it is, every
// operation (even a Search) mutates the tree; callers running under a
// reader/writer lock must Prepare the tree under the write lock first.
func (t *Tree) Ready() bool { return t.root != nil }

// Prepare materializes the lazy root (a no-op once Ready). It performs the
// one global sort pass a cracking index ever does — the cost the paper
// attributes to the first query.
func (t *Tree) Prepare() { t.ensureRoot() }

// buildRoot materializes the root. One of fewer than parallelSortMin points
// is a single pending element. A larger one starts as an internal node over
// the non-empty Morton cells of its MBR (see mortonCells), each a pending
// element: the first crack then meets elements a Fanout-th the size of the
// whole set, and their S sort orders, all independent, are built in one
// concurrent batch. The shape depends on the points and the Options only,
// never on the machine.
//
// Lazy root materialization is deterministic from the point set and
// happens identically on load, so it is never WAL-logged.
func (t *Tree) buildRoot() {
	t.root = t.arena.alloc()
	if t.initialN == 0 {
		t.arena.setLeaf(t.root, t.ps, []int32{})
		return
	}
	var elems []*node
	var jobs []orderJob
	if t.initialN < parallelSortMin {
		ids := firstIDs(t.initialN)
		elems = []*node{t.root}
		jobs = t.setPending(t.root, ids, t.ps.MBRof(ids), nil)
	} else {
		frame, cells, mbrs := mortonCells(t.ps, t.initialN, bits.Len(uint(t.opt.Fanout))-1)
		t.root.setMBR(frame)
		for c, ids := range cells {
			if len(ids) > 0 {
				child := t.arena.alloc()
				jobs = t.setPending(child, ids, mbrs[c], jobs)
				elems = append(elems, child)
			}
		}
		t.root.children = elems
	}
	runOrderJobs(jobs)
	for _, nd := range elems {
		if nd.part.count() <= t.opt.LeafCap {
			t.toLeaf(nd)
		}
	}
	if t.root.isInternal() {
		for _, nd := range elems {
			t.root.pending += nd.pending
		}
	}
}

// setPending makes nd the pending element over ids (ascending), whose MBR
// is mbr, and appends the jobs that will fill its sort orders.
func (t *Tree) setPending(nd *node, ids []int32, mbr Rect, jobs []orderJob) []orderJob {
	p := &partition{orders: make([][]int32, t.ps.Dim), mbr: mbr}
	nd.setMBR(mbr)
	nd.part = p
	nd.pending = 1
	return appendOrderJobs(jobs, t.ps, ids, p.orders)
}

// mortonCells buckets the ids 0..n-1 by the nbits-long Morton prefix of
// their points in frame, the MBR of all n: MSB first, bit b bisects
// dimension b mod dim at the midpoint of the interval the earlier bits left
// (1 = upper half). It returns frame and, in prefix order, every cell's ids
// (ascending) and MBR.
//
// Workers take contiguous id ranges (bucketRanges). The first pass finds
// each range's box, the second notes each id's cell and each (range, cell)
// count and box, the third scatters the ids into exact-size cells at
// per-(range, cell) offsets.
func mortonCells(ps *PointSet, n, nbits int) (frame Rect, cells [][]int32, mbrs []Rect) {
	ranges := bucketRanges(n)
	frames := make([]Rect, len(ranges)-1)
	inParallel(len(frames), func(w int) {
		frames[w] = EmptyRect(ps.Dim)
		for id := ranges[w]; id < ranges[w+1]; id++ {
			frames[w].Expand(ps.At(id))
		}
	})
	frame = EmptyRect(ps.Dim)
	for _, r := range frames {
		frame.ExpandRect(r)
	}

	ncells := 1 << nbits
	mids := mortonMids(frame, nbits)
	cellOf := make([]uint32, n)
	counts := make([][]int32, len(frames))
	boxes := make([][]Rect, len(frames))
	inParallel(len(frames), func(w int) {
		cnt := make([]int32, ncells)
		box := make([]Rect, ncells)
		for c := range box {
			box[c] = EmptyRect(ps.Dim)
		}
		for id := ranges[w]; id < ranges[w+1]; id++ {
			pt := ps.At(id)
			cell, d := 0, 0
			for b := 0; b < nbits; b++ {
				upper := 0 // branch-free: the bits of scattered points are coin flips
				if pt[d] >= mids[1<<b|cell] {
					upper = 1
				}
				cell = cell<<1 | upper
				if d++; d == len(pt) {
					d = 0
				}
			}
			cellOf[id] = uint32(cell)
			cnt[cell]++
			box[cell].Expand(pt)
		}
		counts[w], boxes[w] = cnt, box
	})

	// Cell c's ids start where the cells before it end; range w writes its
	// share of them after the shares of the ranges before it. Each count
	// becomes the offset its range writes its next id of the cell at.
	ids := make([]int32, n)
	cells = make([][]int32, ncells)
	mbrs = make([]Rect, ncells)
	at := int32(0)
	for c := range cells {
		start := at
		mbrs[c] = EmptyRect(ps.Dim)
		for w := range frames {
			at, counts[w][c] = at+counts[w][c], at
			mbrs[c].ExpandRect(boxes[w][c])
		}
		cells[c] = ids[start:at:at]
	}
	inParallel(len(frames), func(w int) {
		off := counts[w]
		for id := ranges[w]; id < ranges[w+1]; id++ {
			c := cellOf[id]
			ids[off[c]] = id
			off[c]++
		}
	})
	return frame, cells, mbrs
}

// mortonMids returns the bisection midpoint of every Morton prefix of frame
// shorter than nbits bits: bit b of a point whose first b bits are prefix
// compares its coordinate b mod dim with mids[1<<b|prefix]. Each midpoint
// is computed as a walk down the prefix would compute it.
func mortonMids(frame Rect, nbits int) []float64 {
	mids := make([]float64, 1<<nbits)
	box := frame.Clone()
	lo, hi := box.Lo, box.Hi
	var fill func(b, prefix int)
	fill = func(b, prefix int) {
		if b == nbits {
			return
		}
		d := b % len(lo)
		mid := 0.5 * (lo[d] + hi[d])
		mids[1<<b|prefix] = mid
		saved := hi[d]
		hi[d] = mid
		fill(b+1, prefix<<1)
		hi[d] = saved
		saved = lo[d]
		lo[d] = mid
		fill(b+1, prefix<<1|1)
		lo[d] = saved
	}
	fill(0, 0)
	return mids
}

// Opt returns the tree's normalized options.
func (t *Tree) Opt() Options { return t.opt }

// toLeaf converts a pending node that fits in a leaf. The page gets a copy
// of the partition's first id list, which may be a view of a larger
// element cut in place.
func (t *Tree) toLeaf(nd *node) {
	nd.setMBR(nd.part.mbr)
	t.arena.setLeaf(nd, t.ps, slices.Clone(nd.part.ids()))
	nd.part = nil
	nd.pending = 0
}

// Crack incrementally builds the index for query region q: the greedy
// IncrementalIndexBuild of §IV, which commits to the locally best binary
// split at every step. It is the entry point Algorithm 3 calls with its
// final query region. The paper's A*-searched Top-kSplitsIndexBuild
// (Algorithm 2) was measured against it and removed: see EXPERIMENTS.md.
func (t *Tree) Crack(q Rect) {
	t.ensureRoot()
	t.queries.Add(1)
	t.crackGreedy(t.root, q)
}

// NoteQuery counts a query whose Crack was skipped because NeedsCrack
// reported the region warm. It is safe to call without any lock.
func (t *Tree) NoteQuery() { t.queries.Add(1) }

// NeedsCrack reports whether Crack(q) would mutate the tree: the root is
// still lazy, or some pending element overlapping q fails the stopping
// condition (it would be split). When it returns false, Crack(q) is a structural no-op — the
// read-lock fast path can skip the exclusive lock entirely and just
// NoteQuery. Read-only; safe under a shared lock once the tree is Ready.
func (t *Tree) NeedsCrack(q Rect) bool {
	if t.root == nil {
		return true
	}
	return t.needsCrackAt(t.root, q)
}

// needsCrackAt is NeedsCrack below nd. A subtree without pending elements
// (all of a converged region) is passed over on its count alone.
func (t *Tree) needsCrackAt(nd *node, q Rect) bool {
	if nd.pending == 0 || !nd.mbr.Overlaps(q) {
		return false
	}
	if nd.isInternal() {
		for _, c := range nd.children {
			if t.needsCrackAt(c, q) {
				return true
			}
		}
		return false
	}
	p := nd.part
	n := p.count()
	cq := p.countInRect(t.ps, q)
	// The stopping condition of Section IV-C step 3, as crackPending
	// applies it: irrelevant or (almost) fully covered elements stay
	// coarse.
	return cq != 0 && ceilDiv(cq, t.opt.LeafCap) != ceilDiv(n, t.opt.LeafCap)
}

// crackGreedy implements IncrementalIndexBuild: descend to contour elements
// overlapping q; split each one that fails the stopping condition, using the
// locally best binary split (bestSplit); recurse into the new children. It
// skips subtrees without pending elements, keeps nd's pending count and
// returns the change to it.
func (t *Tree) crackGreedy(nd *node, q Rect) int32 {
	if nd.pending == 0 || !nd.mbr.Overlaps(q) {
		return 0
	}
	if nd.isInternal() {
		var delta int32
		for _, c := range nd.children {
			delta += t.crackGreedy(c, q)
		}
		nd.pending += delta
		return delta
	}
	return t.crackPending(nd, q, nd.part.countInRect(t.ps, q))
}

// crackPending cracks a pending element too big for a leaf, cq of whose
// points lie inside q. The elements it creates carry the MBRs and counts
// the split evaluation computed, so only the element the crack arrived at
// is ever scanned for its count. They are cut inside nd's lists, and each
// that is still pending once its own crack returns copies its lists out,
// so nd's become garbage. It returns the change to nd's pending count.
func (t *Tree) crackPending(nd *node, q Rect, cq int) int32 {
	p := nd.part
	n := p.count()
	// Stopping condition (Section IV-C step 3): element irrelevant to q, or
	// q already covers (almost) all of it, in which case splitting cannot
	// reduce the leaf-page lower bound of Lemma 3.
	if cq == 0 || ceilDiv(cq, t.opt.LeafCap) == ceilDiv(n, t.opt.LeafCap) {
		return 0
	}

	parts := t.partitionGreedy(nil, countedPart{p, cq}, t.levelM(n), &q)
	nd.part = nil
	t.arena.statsOf(nd).Store(nil)
	nd.children = make([]*node, 0, len(parts))
	nd.pending = 0
	for _, cp := range parts {
		child := t.arena.alloc()
		child.setMBR(cp.part.mbr)
		child.part = cp.part
		child.pending = 1
		if cp.part.count() <= t.opt.LeafCap {
			t.toLeaf(child)
		}
		nd.pending += child.pending
		nd.children = append(nd.children, child)
	}
	for i, c := range nd.children {
		if c.isPending() {
			nd.pending += t.crackPending(c, q, parts[i].cq)
			if c.isPending() {
				c.part.own()
			}
		}
	}
	return nd.pending - 1
}

// levelM returns m, the per-child chunk size when partitioning an n-point
// element: ceil(n/M) points per child, but never below the leaf capacity.
func (t *Tree) levelM(n int) int {
	m := ceilDiv(n, t.opt.Fanout)
	if m < t.opt.LeafCap {
		m = t.opt.LeafCap
	}
	return m
}

// countedPart is a partition with |Q ∩ e| for the query region it is being
// cracked for (unused when bulk loading).
type countedPart struct {
	part *partition
	cq   int
}

// partitionGreedy is the Partition function of Algorithm 1 with the paper's
// cracking stopping condition: recursively binary-split p until chunks reach
// size m, leaving chunks that are irrelevant to q (or fully covered by it)
// unsplit regardless of size. The chunks are appended to out, left to right;
// each is cut in place inside p's lists (partition.split).
func (t *Tree) partitionGreedy(out []countedPart, p countedPart, m int, q *Rect) []countedPart {
	n := p.part.count()
	if n <= m {
		return append(out, p)
	}
	if q != nil && (p.cq == 0 || ceilDiv(p.cq, t.opt.LeafCap) == ceilDiv(n, t.opt.LeafCap)) {
		return append(out, p)
	}
	ch, ok := bestSplit(t.ps, p.part, m, q, p.cq, t.opt.LeafCap)
	if !ok {
		return append(out, p)
	}
	if need := n - ch.pos + 1; len(t.cutBuf) < need {
		t.cutBuf = make([]int32, need)
	}
	l, r := p.part.split(ch, t.scratch, t.cutBuf)
	t.splits++
	out = t.partitionGreedy(out, countedPart{l, ch.qL}, m, q)
	return t.partitionGreedy(out, countedPart{r, ch.qH}, m, q)
}

// Search returns the ids of all points inside q, using whatever structure
// exists: materialized subtrees prune by MBR, pending elements are scanned.
// Search never mutates the tree.
func (t *Tree) Search(q Rect) []int32 {
	var out []int32
	t.SearchFunc(q, func(id int32) { out = append(out, id) })
	return out
}

// SearchFunc streams the ids of all points inside q to fn.
func (t *Tree) SearchFunc(q Rect, fn func(id int32)) {
	t.ensureRoot()
	t.root.eachElement(&q, func(nd *node) {
		covered := q.ContainsRect(nd.mbr)
		for _, id := range nd.ids() {
			if covered || q.Contains(t.ps.At(id)) {
				fn(id)
			}
		}
	})
}

// eachElement visits the contour elements under n, skipping subtrees whose
// MBR does not overlap q when q is non-nil.
func (n *node) eachElement(q *Rect, fn func(nd *node)) {
	switch {
	case q != nil && !n.mbr.Overlaps(*q):
	case n.isInternal():
		for _, c := range n.children {
			c.eachElement(q, fn)
		}
	case n.isLeaf(), n.isPending():
		fn(n)
	}
}

// Stats summarizes the index structure: node counts, binary splits
// performed, and estimated size in bytes. For a cracking index these grow
// with the query workload and converge quickly (Figs. 9-11 of the paper).
type Stats struct {
	InternalNodes int
	LeafNodes     int
	PendingNodes  int
	TotalNodes    int
	BinarySplits  int
	Queries       int
	// SizeBytes is the true index footprint: arena slab bytes plus the heap
	// memory nodes reference (child lists, leaf pages, pending partitions).
	// It excludes the PointSet, which is shared across trees.
	SizeBytes int
	Height    int
	Points    int
	// ArenaBytes is the slab memory retained, records handed out or not.
	ArenaBytes int
}

// Stats computes current structural statistics. It is read-only: before
// the lazy root exists it reports the unbuilt index, no nodes and every
// point the root will cover still pending.
func (t *Tree) Stats() Stats {
	if t.root == nil {
		return Stats{Queries: int(t.queries.Load()), Points: t.initialN, ArenaBytes: t.arena.slabBytes(), SizeBytes: t.arena.slabBytes()}
	}
	in, lf, pd := t.root.countNodes()
	return Stats{
		InternalNodes: in,
		LeafNodes:     lf,
		PendingNodes:  pd,
		TotalNodes:    in + lf + pd,
		BinarySplits:  t.splits,
		Queries:       int(t.queries.Load()),
		SizeBytes:     t.arena.slabBytes() + t.root.sizeBytes(t.ps.Dim),
		Height:        t.root.height(),
		Points:        t.root.numPoints(),
		ArenaBytes:    t.arena.slabBytes(),
	}
}

// CheckInvariants verifies the structural invariants the paper's lemmas rely
// on, and the records' derived fields: every node's MBR is exactly the box
// of the points below it, compared by value so that -0 equals +0 (the
// updates are insert-only, so no box is ever left loose); internal nodes
// have children; the contour elements partition the point set (Lemma 1);
// leaves respect the capacity and their pages hold exactly their points'
// rows; pending elements are too big for a leaf and keep consistent sort
// orders; every node counts
// the pending elements below it (node.pending); every arena record handed
// out is in the tree; no two id lists of the contour share memory
// (sharedLists). Intended for tests; O(n log n).
func (t *Tree) CheckInvariants() error {
	t.ensureRoot()
	seen := make(map[int32]int)
	var lists [][]int32
	live := 0
	// walk checks the subtree of nd and grows into to cover its points.
	var walk func(nd *node, depth int, into *Rect) error
	walk = func(nd *node, depth int, into *Rect) error {
		live++
		box := EmptyRect(t.ps.Dim)
		if got := t.arena.at(nd.idx); got != nd {
			return fmt.Errorf("node arena index %d resolves to a different record", nd.idx)
		}
		var pending int32 // the pending elements below nd, itself included
		switch {
		case nd.isInternal():
			if len(nd.children) == 0 {
				return fmt.Errorf("internal node with no children at depth %d", depth)
			}
			if len(nd.children) > t.opt.Fanout {
				return fmt.Errorf("internal node with %d > M=%d children", len(nd.children), t.opt.Fanout)
			}
			for _, c := range nd.children {
				if err := walk(c, depth+1, &box); err != nil {
					return err
				}
				pending += c.pending
			}
		case nd.isLeaf():
			if len(nd.leaf.ids) > t.opt.LeafCap {
				return fmt.Errorf("leaf with %d > N=%d entries", len(nd.leaf.ids), t.opt.LeafCap)
			}
			if err := nd.leaf.check(t.ps); err != nil {
				return err
			}
			lists = append(lists, nd.leaf.ids)
		case nd.isPending():
			pending = 1
			p := nd.part
			n := p.count()
			if n <= t.opt.LeafCap {
				return fmt.Errorf("pending element of %d <= N=%d points", n, t.opt.LeafCap)
			}
			lists = append(lists, p.orders...)
			for s := 1; s < len(p.orders); s++ {
				if len(p.orders[s]) != n {
					return fmt.Errorf("pending element has ragged sort orders")
				}
			}
			for s, order := range p.orders {
				for i := 1; i < len(order); i++ {
					if t.ps.Coord(order[i-1], s) > t.ps.Coord(order[i], s) {
						return fmt.Errorf("sort order %d out of order at %d", s, i)
					}
				}
			}
		default:
			return fmt.Errorf("node with no state at depth %d", depth)
		}
		if nd.pending != pending {
			return fmt.Errorf("node at depth %d counts %d pending elements below it, not %d", depth, nd.pending, pending)
		}
		if !nd.isInternal() {
			for _, id := range nd.ids() {
				box.Expand(t.ps.At(id))
				seen[id]++
			}
		}
		if !nd.mbr.equal(box) {
			return fmt.Errorf("MBR %v at depth %d is not %v, the box of the points below it", nd.mbr, depth, box)
		}
		into.ExpandRect(box)
		return nil
	}
	all := EmptyRect(t.ps.Dim)
	if err := walk(t.root, 0, &all); err != nil {
		return err
	}
	if err := sharedLists(lists); err != nil {
		return err
	}
	if live != t.arena.nodesInUse() {
		return fmt.Errorf("tree has %d nodes but arena reports %d in use", live, t.arena.nodesInUse())
	}
	if len(seen) != t.ps.N() {
		return fmt.Errorf("contour covers %d of %d points", len(seen), t.ps.N())
	}
	for id, c := range seen {
		if c != 1 {
			return fmt.Errorf("point %d appears %d times in contour", id, c)
		}
	}
	return nil
}

// sharedLists reports two lists whose memory, [SliceData, +cap), overlaps:
// a crack cuts an element inside its own lists and copies out whatever
// outlives it, so an append to one contour element's list can never write
// into another's.
func sharedLists(lists [][]int32) error {
	type span struct{ from, to uintptr }
	spans := make([]span, 0, len(lists))
	for _, l := range lists {
		if cap(l) > 0 {
			from := uintptr(unsafe.Pointer(unsafe.SliceData(l)))
			spans = append(spans, span{from, from + uintptr(cap(l))*4})
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.from, b.from) })
	for i := 1; i < len(spans); i++ {
		if spans[i].from < spans[i-1].to {
			return fmt.Errorf("two contour id lists share memory at %#x", spans[i].from)
		}
	}
	return nil
}
