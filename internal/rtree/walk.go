package rtree

import (
	"math"
	"slices"
	"sync"
)

// WalkAscending streams point ids in non-decreasing S2 distance from q
// (classic best-first branch-and-bound over the tree). visit receives each
// id with its squared distance and returns false to stop the walk — since
// points arrive in ascending order, returning false at the first point
// outside the caller's (possibly shrinking) search radius is exact.
//
// This is the traversal Algorithm 3's line 5 loop relies on: "examine the
// data points of the query region in increasing distance from q".
func (t *Tree) WalkAscending(q []float64, visit func(id int32, sqDist float64) bool) {
	t.WalkWithin(q, func() float64 { return math.Inf(1) }, visit)
}

// WalkWithin is WalkAscending with a dynamic pruning bound: nodes and
// points whose squared distance exceeds bound() are never pushed onto the
// frontier. The bound may shrink over time (Algorithm 3's radius does);
// growing it mid-walk is not supported.
func (t *Tree) WalkWithin(q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	WalkTreesWithin([]*Tree{t}, q, bound, visit)
}

// WalkTreesWithin merges the best-first walks of several trees into one
// ascending stream. All trees must be built over the same PointSet, already
// Ready (the engine prepares its tree under its write lock before serving),
// and share one AccessCounters sink. The heap's deterministic ordering makes
// the visit sequence ascending (distance, id) regardless of how the points
// are arranged into nodes. Nothing in this module passes more than one tree:
// the slice survives because bench/ calls it (ROADMAP item 0).
func WalkTreesWithin(trees []*Tree, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	f := frontierPool.Get().(*frontier)
	b := bound()
	for _, t := range trees {
		f.seed(t, q, b)
	}
	f.items.init()
	f.drain(trees[0].ps, q, bound, visit)
	f.release(trees[0].access)
}

// frontier is one walk's state: the best-first heap over nodes and runs,
// the flat point scratch the runs live in, and the node accesses counted so
// far. A scanned leaf or pending element contributes one run — its in-bound
// points, appended to pts and ordered in place as a min-heap on (d, id) —
// and one heap item keyed by the run's minimum, so the frontier holds an
// item per leaf, never one per point.
//
// Node accesses are counted here and flushed once per walk, so the Lemma 3
// cost counters add no atomics to the per-node fast path.
type frontier struct {
	items               walkHeap
	pts                 []walkPoint
	accIn, accLf, accPd uint64
	hole                bool // the top item is a node under expansion, not yet replaced
}

// Frontiers are pooled so a warm walk allocates nothing. A walk that grew
// its buffers past these capacities drops them instead: the first query on
// a cold index scans a pending root of every point, and pooling that
// scratch would pin megabytes per P for the life of the process.
const (
	maxPooledItems  = 1 << 10
	maxPooledPoints = 1 << 12
)

var frontierPool = sync.Pool{New: func() any { return new(frontier) }}

// seed adds t's root to the (not yet heap-ordered) frontier unless it lies
// beyond the bound b.
func (f *frontier) seed(t *Tree, q []float64, b float64) {
	t.ensureRoot()
	if d := t.root.mbr.MinSqDist(q); d <= b {
		f.items = append(f.items, walkItem{n: t.root, d: d, id: nodeID})
	}
}

// release flushes the access counts and returns the frontier to the pool
// with no node pointer left in it: arena records must not be reachable
// once the caller drops the index read lock. pop clears the slots it
// vacates, so only the live prefix needs clearing here.
func (f *frontier) release(access *AccessCounters) {
	access.flush(f.accIn, f.accLf, f.accPd)
	if cap(f.items) > maxPooledItems || cap(f.pts) > maxPooledPoints {
		return
	}
	clear(f.items)
	*f = frontier{items: f.items[:0], pts: f.pts[:0]}
	frontierPool.Put(f)
}

// drain visits the frontier's points in deterministic best-first order.
// Trees sharing the frontier must share ps; LeafCap and friends are not
// consulted, so mixed-option trees are fine. Points enter through the two
// appendWithin scans — a leaf's page, a pending element's ids — whose
// distances are bit-identical.
//
// A run's item stays at the top of the heap while its head is visited and
// is then re-keyed to the run's next point with one sift-down, instead of a
// pop and a push per point. The bound is read once per step, before the
// item it gates.
func (f *frontier) drain(ps *PointSet, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	for len(f.items) > 0 {
		it := f.items[0]
		b := bound()
		if it.d > b {
			return // everything left is farther than the bound
		}
		if it.n == nil {
			if !visit(it.id, it.d) {
				return
			}
			f.advance()
			continue
		}
		// The node's expansion takes its place: the first item it yields
		// overwrites the top (a run's key is at least its leaf's, so it
		// seldom sinks far), the rest are pushed, and only a node that
		// yields nothing is popped.
		f.hole = true
		switch {
		case it.n.isInternal():
			f.accIn++
			for _, c := range it.n.children {
				if d := c.mbr.MinSqDist(q); d <= b {
					f.put(walkItem{n: c, d: d, id: nodeID})
				}
			}
		case it.n.isLeaf():
			f.accLf++
			lo := f.room(len(it.n.leaf.ids))
			f.pts = it.n.leaf.appendWithin(f.pts, q, b)
			f.putRun(lo)
		default:
			f.accPd++
			// The whole element when the bound is still infinite, else a
			// long scan's first chunk.
			ids := it.n.part.ids()
			room := len(ids)
			if room > gatherChunk && !math.IsInf(b, 1) {
				room = gatherChunk
			}
			lo := f.room(room)
			f.pts = ps.appendWithin(f.pts, ids, q, b)
			f.putRun(lo)
		}
		if f.hole {
			f.hole = false
			f.items.pop()
		}
	}
}

// put adds an item to the frontier, in the place of the node being
// expanded if that is still open.
func (f *frontier) put(it walkItem) {
	if !f.hole {
		f.items.push(it)
		return
	}
	f.hole = false
	f.items[0] = it
	f.items.down(0)
}

// room makes space for n more points in the scratch and returns where they
// will start. Growing by at least the current length doubles the scratch:
// append's ratio of 1.25 would copy an aggregate's ball of thousands of
// points, too large to come back from the pool, five times over.
func (f *frontier) room(n int) int {
	if cap(f.pts)-len(f.pts) < n {
		f.pts = slices.Grow(f.pts, max(n, len(f.pts)))
	}
	return len(f.pts)
}

// putRun makes the points scanned into pts[lo:] a run and puts its item on
// the frontier. Building the heap is O(m) and the tail of a run the walk
// never reaches is never ordered, so a cold index's pending root of every
// point costs one linear pass.
func (f *frontier) putRun(lo int) {
	if len(f.pts) == lo {
		return
	}
	run := walkRun(f.pts[lo:])
	run.init()
	f.put(walkItem{d: run[0].d, id: run[0].id, lo: int32(lo), hi: int32(len(f.pts))})
}

// advance drops the head of the run at the top of the heap and re-keys the
// item to the run's next point, or pops it when the run is exhausted.
func (f *frontier) advance() {
	it := &f.items[0]
	it.hi--
	run := walkRun(f.pts[it.lo:it.hi])
	if len(run) == 0 {
		f.items.pop()
		return
	}
	run[0] = f.pts[it.hi]
	run.down(0)
	it.d, it.id = run[0].d, run[0].id
	f.items.down(0)
}

// walkPoint is one in-bound point of a run. It holds no pointer, so the
// scratch is invisible to the garbage collector's mark phase.
type walkPoint struct {
	d  float64
	id int32
}

// walkRun is a min-heap of points on (d, id), ordered in place over its
// slice of the frontier's scratch.
type walkRun []walkPoint

func (r walkRun) less(i, j int) bool {
	if r[i].d != r[j].d {
		return r[i].d < r[j].d
	}
	return r[i].id < r[j].id
}

func (r walkRun) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(r) {
			return
		}
		if c := l + 1; c < len(r) && r.less(c, l) {
			l = c
		}
		if !r.less(l, i) {
			return
		}
		r[i], r[l] = r[l], r[i]
		i = l
	}
}

func (r walkRun) init() {
	for i := len(r)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
}

// walkItem is a frontier entry: a node still to expand (n != nil, keyed by
// its MBR's distance and nodeID), or a run of scanned points pts[lo:hi]
// keyed by its head (d, id).
type walkItem struct {
	n      *node
	d      float64
	id     int32
	lo, hi int32
}

// nodeID is the id half of a node item's key: below every point id, so at
// equal distance nodes sort before runs.
const nodeID = -1

// walkHeap is the best-first frontier with concrete push/pop methods;
// container/heap would box every walkItem into an interface value, one
// allocation per push.
type walkHeap []walkItem

// less orders the frontier by ascending (distance, id): at equal distance
// nodes come before runs (so every point at distance d is in some run
// before any is visited) and runs break ties by their head's id. Every id
// lives in exactly one run and a run's key is its minimum, so the top run's
// head is the minimum (distance, id) over all scanned points: the visit
// order is exactly ascending (distance, id) — a total order over the data,
// independent of the tree structure — which keeps walks over differently
// cracked trees bit-identical.
func (h walkHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].id < h[j].id
}

func (h *walkHeap) push(it walkItem) {
	*h = append(*h, it)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the top item, clearing the slot it vacates so no node pointer
// survives past the live prefix.
func (h *walkHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s[n] = walkItem{}
	*h = s[:n]
	s[:n].down(0)
}

func (h walkHeap) down(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h.less(r, l) {
			l = r
		}
		if !h.less(l, i) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// init establishes the heap property over an unordered backing slice.
func (h walkHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}
