package rtree

import (
	"container/heap"
)

// This file implements Top-kSplitsIndexBuild (Algorithm 2): instead of
// committing to the locally best binary split, the builder keeps a priority
// queue of candidate contours ("change candidates"), expands the cheapest
// one with its top-k split choices, and adopts the first candidate whose
// elements all satisfy the stopping condition. Because the cost c_Q is
// non-decreasing along any expansion (splitting can only raise the
// leaf-page lower bound of Lemma 3; the overlap term c_O is zero on point
// data, see bestSplits), the first completed candidate popped is optimal —
// the A* argument the paper relies on.
//
// Hypothetical splits are cut into fresh lists (partition.splitOut), never
// in place, so they are cached per (partition, order, boundary) and shared
// between candidates; only the winning chain is materialized into tree
// nodes.

// workItem is one contour element a candidate still has to process, with
// the chunk size m of the level it is being split at. Work lists are
// persistent (shared tails) to keep candidate expansion O(1) in memory.
type workItem struct {
	part *partition
	m    int
	next *workItem
}

// splitRec records one hypothetical binary split; a candidate's splits form
// a persistent list threaded through next.
type splitRec struct {
	parent      *partition
	left, right *partition
	next        *splitRec
}

// candidate is a change candidate: a contour reachable from the current
// index by the recorded splits, with its cost.
type candidate struct {
	cq     int
	work   *workItem
	splits *splitRec
	seq    int // insertion order, for deterministic tie-breaking
}

type candHeap []*candidate

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].cq != h[j].cq {
		return h[i].cq < h[j].cq
	}
	// Ties are pervasive (most splits leave the cost unchanged),
	// so break them toward the NEWEST candidate: depth-first progress with
	// backtracking only on genuine cost differences. FIFO tie-breaking
	// would degenerate into breadth-first enumeration of equal-cost split
	// orderings — exponential in the number of splits per query.
	return h[i].seq > h[j].seq
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(*candidate)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type splitKey struct {
	p      *partition
	s, pos int
}

// crackTopK runs Algorithm 2 for query region q and applies the winning
// split chain to the tree.
func (t *Tree) crackTopK(q Rect) {
	// Gather the pending contour elements overlapping q, in DFS order, and
	// remember their nodes so the winner can be materialized in place.
	type touchedElem struct {
		nd *node
	}
	var touched []touchedElem
	var initial *workItem
	var tail *workItem
	cq0 := 0
	var walk func(nd *node)
	walk = func(nd *node) {
		if !nd.mbr.Overlaps(q) {
			return
		}
		switch {
		case nd.isInternal():
			for _, c := range nd.children {
				walk(c)
			}
		case nd.isLeaf():
			cq0 += ceilDiv(countIn(t.ps, nd.leaf.ids, q), t.opt.LeafCap)
		default:
			p := nd.part
			if p.count() <= t.opt.LeafCap {
				t.toLeaf(nd)
				cq0 += ceilDiv(countIn(t.ps, nd.leaf.ids, q), t.opt.LeafCap)
				return
			}
			cqe := p.countInRect(t.ps, q)
			cq0 += ceilDiv(cqe, t.opt.LeafCap)
			if cqe == 0 || ceilDiv(cqe, t.opt.LeafCap) == ceilDiv(p.count(), t.opt.LeafCap) {
				return // stopping condition; element stays coarse
			}
			touched = append(touched, touchedElem{nd: nd})
			item := &workItem{part: p, m: t.levelM(p.count())}
			if tail == nil {
				initial = item
			} else {
				tail.next = item
			}
			tail = item
		}
	}
	walk(t.root)
	if initial == nil {
		return
	}

	cache := make(map[splitKey][2]*partition)
	// bestSplits is deterministic per (partition, m); candidates revisit the
	// same elements constantly, so memoize the choice lists per query.
	type choiceKey struct {
		p *partition
		m int
	}
	choiceCache := make(map[choiceKey][]splitChoice)
	cqCache := make(map[*partition]int)
	countInQ := func(p *partition) int {
		if c, ok := cqCache[p]; ok {
			return c
		}
		c := p.countInRect(t.ps, q)
		cqCache[p] = c
		return c
	}
	pq := &candHeap{}
	seq := 0
	heap.Push(pq, &candidate{cq: cq0, work: initial, seq: seq})

	var winner *candidate
	pops := 0
	k := t.opt.SplitChoices
	for pq.Len() > 0 {
		cand := heap.Pop(pq).(*candidate)
		if cand.work == nil {
			winner = cand
			break
		}
		pops++
		if pops > t.opt.MaxCandidatePops {
			k = 1 // finish the best candidate greedily
		}
		item := cand.work
		p, m := item.part, item.m
		cqe := countInQ(p)
		choices, ok := choiceCache[choiceKey{p, m}]
		if !ok {
			choices = bestSplits(t.ps, p, m, &q, cqe, t.opt.LeafCap, k)
			choiceCache[choiceKey{p, m}] = choices
		}
		if len(choices) > k {
			choices = choices[:k] // k may have dropped after the pop cap
		}
		if len(choices) == 0 {
			// Cannot split further at this level; drop the item.
			seq++
			heap.Push(pq, &candidate{cq: cand.cq, work: item.next, splits: cand.splits, seq: seq})
			continue
		}
		for _, ch := range choices {
			key := splitKey{p: p, s: ch.s, pos: ch.pos}
			halves, ok := cache[key]
			if !ok {
				l, r := p.splitOut(ch, t.scratch)
				halves = [2]*partition{l, r}
				cache[key] = halves
				cqCache[l], cqCache[r] = ch.qL, ch.qH
				t.explored++
			}
			l, r := halves[0], halves[1]
			cqL := countInQ(l)
			cqR := countInQ(r)

			work := item.next
			// Push right then left so the left half is processed first
			// (DFS order, as in the greedy build).
			work = t.pushHalf(work, r, cqR, m)
			work = t.pushHalf(work, l, cqL, m)

			seq++
			heap.Push(pq, &candidate{
				cq:     cand.cq - ceilDiv(cqe, t.opt.LeafCap) + ceilDiv(cqL, t.opt.LeafCap) + ceilDiv(cqR, t.opt.LeafCap),
				work:   work,
				splits: &splitRec{parent: p, left: l, right: r, next: cand.splits},
				seq:    seq,
			})
		}
	}
	if winner == nil {
		return // unreachable: the PQ always terminates with a completed candidate
	}

	// Materialize the winning chain.
	splitsOf := make(map[*partition]*splitRec)
	for rec := winner.splits; rec != nil; rec = rec.next {
		splitsOf[rec.parent] = rec
	}
	for _, te := range touched {
		p := te.nd.part
		if splitsOf[p] == nil {
			continue
		}
		parts := t.collectLevel(p, t.levelM(p.count()), splitsOf)
		te.nd.part = nil
		t.arena.statsOf(te.nd).Store(nil)
		te.nd.children = make([]*node, 0, len(parts))
		for _, cp := range parts {
			te.nd.children = append(te.nd.children, t.materialize(cp, splitsOf))
		}
	}
}

// pushHalf adds a split half to the work list if it still needs processing:
// big enough to split, relevant to the query, and not (almost) fully
// covered. Halves that finished their level but remain crackable get the
// next level's chunk size.
func (t *Tree) pushHalf(work *workItem, p *partition, cqp, m int) *workItem {
	n := p.count()
	if n <= t.opt.LeafCap {
		return work // becomes a leaf at materialization
	}
	if cqp == 0 || ceilDiv(cqp, t.opt.LeafCap) == ceilDiv(n, t.opt.LeafCap) {
		return work // stopping condition
	}
	nm := m
	if n <= m {
		nm = t.levelM(n) // completed this level; continue at the next
	}
	return &workItem{part: p, m: nm, next: work}
}

// collectLevel walks the hypothetical split tree of p, flattening the
// binary splits of one level (chunks of size at most m) into the child list
// of an M-way node, exactly as the greedy build's Partition does.
func (t *Tree) collectLevel(p *partition, m int, splitsOf map[*partition]*splitRec) []*partition {
	rec := splitsOf[p]
	if rec == nil || p.count() <= m {
		return []*partition{p}
	}
	t.splits++ // this hypothetical split is being adopted
	return append(t.collectLevel(rec.left, m, splitsOf), t.collectLevel(rec.right, m, splitsOf)...)
}

// materialize converts a (possibly further split) partition into tree
// nodes.
func (t *Tree) materialize(p *partition, splitsOf map[*partition]*splitRec) *node {
	t.created++
	nd := t.arena.alloc()
	nd.setMBR(p.mbr)
	if splitsOf[p] == nil || p.count() <= t.opt.LeafCap {
		nd.part = p
		if p.count() <= t.opt.LeafCap {
			t.toLeaf(nd)
		}
		return nd
	}
	parts := t.collectLevel(p, t.levelM(p.count()), splitsOf)
	nd.children = make([]*node, 0, len(parts))
	for _, cp := range parts {
		nd.children = append(nd.children, t.materialize(cp, splitsOf))
	}
	return nd
}
