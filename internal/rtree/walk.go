package rtree

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// WalkWithin streams point ids in non-decreasing S2 distance from q
// (classic best-first branch-and-bound over the tree). visit receives each
// id with its squared distance and returns false to stop the walk — since
// points arrive in ascending order, returning false at the first point
// outside the caller's (possibly shrinking) search radius is exact.
//
// This is the traversal Algorithm 3's line 5 loop relies on: "examine the
// data points of the query region in increasing distance from q". Nodes
// and points whose squared distance exceeds bound() are never pushed onto
// the frontier. The bound may shrink over time (Algorithm 3's radius does);
// growing it mid-walk is not supported. The tree must be Ready (the engine
// prepares its tree under its write lock before serving).
func (t *Tree) WalkWithin(q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	t.ensureRoot()
	f := frontierPool.Get().(*frontier)
	if d := t.root.mbr.MinSqDist(q); d <= bound() {
		f.push(d, ^t.root.idx)
	}
	f.drain(t, q, bound, visit)
	f.release(t.access)
}

// WalkTreesWithin is WalkWithin over trees[0]; trees must hold exactly one
// tree, since the frontier names nodes by their index in that tree's arena.
// The slice survives only because bench/ calls it (ROADMAP item 0a).
func WalkTreesWithin(trees []*Tree, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	if len(trees) != 1 {
		panic("rtree: WalkTreesWithin walks exactly one tree")
	}
	trees[0].WalkWithin(q, bound, visit)
}

// frontier is one walk's state: a radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990) over the nodes still to expand and the in-bound points
// scanned so far, and the node accesses counted so far.
//
// An item's key is math.Float64bits(d), which orders like d for every
// d >= 0, and no key pushed is below last, the key popped last: a child's
// MBR lies inside its parent's, so each term of its MinSqDist is at least
// the parent's; a point lies inside its leaf's or pending element's MBR, so
// each term of its squared distance is at least that MBR's; and rounding
// is monotone in every operation. An item goes to bucket
// bits.Len64(key^last). Bucket 0, zero, holds the items keyed last; bucket
// b >= 1, stored at index b-1, those whose key first differs from last at
// bit b-1, so every key in it is below every key in a higher bucket. A pop
// takes zero's least item. When zero is empty, refill sets last to the
// least key of the lowest non-empty bucket and files that bucket's items
// again, each into a lower bucket. Nothing is compared on insert but the
// bucket's minimum.
//
// items is the walk's one slab: every item pushed, in push order, each
// bucket b >= 1 a list linked through next. The leaf and pending scans
// append their in-bound points straight into it. The frontier holds no
// pointer: a node is ^its arena index, resolved with nodeArena.at.
//
// Node accesses are counted here and flushed once per walk, so the Lemma 3
// cost counters add no atomics to the per-node fast path.
type frontier struct {
	items               []walkItem
	head                [64]int32  // 1 + the index of the bucket's first item, 0 if empty
	notMin              [64]uint64 // ^the bucket's least key, 0 if empty
	mask                uint64     // bit b-1 set when bucket b is non-empty
	last                uint64
	zero                zeroHeap
	accIn, accLf, accPd uint64
}

// walkItem is a frontier entry: a point (ref is its id) or a node still to
// expand (ref is ^its arena index, so negative), at squared distance d.
// next links the items of one bucket (1 + an index into the slab, 0 ends
// the list). The scans write items with next 0.
type walkItem struct {
	d    float64
	ref  int32
	next int32
}

// Frontiers are pooled so a warm walk allocates nothing. A walk that grew
// its slab past this capacity drops it instead: the first query on a cold
// index scans a pending root of every point, and pooling that slab would
// pin megabytes per P for the life of the process.
const maxPooledItems = 1 << 13

var frontierPool = sync.Pool{New: func() any { return new(frontier) }}

// release flushes the access counts and returns the frontier, emptied, to
// the pool.
func (f *frontier) release(access *AccessCounters) {
	access.flush(f.accIn, f.accLf, f.accPd)
	if cap(f.items) > maxPooledItems || cap(f.zero) > maxPooledItems {
		return
	}
	*f = frontier{items: f.items[:0], zero: f.zero[:0]}
	frontierPool.Put(f)
}

// drain visits the frontier's points in ascending (distance, id) order, a
// total order over the data, independent of the tree structure, which
// keeps walks over differently cracked trees bit-identical. At equal
// distance nodes come before points, so every point at distance d is on
// the frontier before any is visited. The bound is read once per step,
// before the item it gates.
func (f *frontier) drain(t *Tree, q []float64, bound func() float64, visit func(id int32, sqDist float64) bool) {
	for len(f.zero) > 0 || f.refill() {
		it := f.zero[0]
		b := bound()
		if it.d > b {
			return // everything left is farther than the bound
		}
		f.zero.pop()
		if it.ref >= 0 {
			if !visit(it.ref, it.d) {
				return
			}
			continue
		}
		nd := t.arena.at(^it.ref)
		lo := len(f.items)
		switch {
		case nd.isInternal():
			f.accIn++
			for _, c := range nd.children {
				if d := c.mbr.MinSqDist(q); d <= b {
					f.items = append(f.items, walkItem{d: d, ref: ^c.idx})
				}
			}
		case nd.isLeaf():
			f.accLf++
			f.items = nd.leaf.appendWithin(f.items, q, b)
		default:
			f.accPd++
			ids := nd.part.ids()
			if math.IsInf(b, 1) {
				f.items = slices.Grow(f.items, len(ids)) // every point is in bound
			}
			f.items = t.ps.appendWithin(f.items, ids, q, b)
		}
		for i := lo; i < len(f.items); i++ {
			f.file(int32(i))
		}
	}
}

// push adds an item at squared distance d to the frontier.
func (f *frontier) push(d float64, ref int32) {
	f.items = append(f.items, walkItem{d: d, ref: ref})
	f.file(int32(len(f.items) - 1))
}

// file puts items[i] in its bucket. A key below last would break the order
// and cannot occur (see frontier); vkgdebug builds panic on one, release
// builds file it in bucket 0, where it still comes out first.
func (f *frontier) file(i int32) {
	it := &f.items[i]
	key := math.Float64bits(it.d)
	checkFrontierKey(key, f.last)
	if key <= f.last {
		f.zero.push(*it)
		return
	}
	b := bits.Len64(key^f.last) - 1
	f.notMin[b] = max(f.notMin[b], ^key)
	f.mask |= 1 << b
	it.next = f.head[b]
	f.head[b] = i + 1
}

// refill empties the lowest non-empty bucket into the ones below it, its
// least items into bucket 0, and reports false when the frontier is empty.
func (f *frontier) refill() bool {
	if f.mask == 0 {
		return false
	}
	b := bits.TrailingZeros64(f.mask)
	f.mask &^= 1 << b
	f.last = ^f.notMin[b]
	f.notMin[b] = 0
	i := f.head[b]
	f.head[b] = 0
	for i != 0 {
		next := f.items[i-1].next
		f.file(i - 1)
		i = next
	}
	return true
}

// zeroHeap is bucket 0, a min-heap on (d, ref): nodes (negative refs)
// before points, points by ascending id. It seldom holds more than one
// item, but exact duplicates can put any number of points in it.
type zeroHeap []walkItem

func (h zeroHeap) less(i, j int) bool {
	if h[i].d != h[j].d {
		return h[i].d < h[j].d
	}
	return h[i].ref < h[j].ref
}

func (h *zeroHeap) push(it walkItem) {
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

func (h *zeroHeap) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		if r := l + 1; r < n && s.less(r, l) {
			l = r
		}
		if !s.less(l, i) {
			return
		}
		s[i], s[l] = s[l], s[i]
		i = l
	}
}
