package rtree

// NewBulkLoaded builds the complete R-tree offline with the top-down
// greedy-split bulk loader (Algorithm 1, BulkLoadChunk): every element is
// partitioned all the way down to leaves. With no query region c_Q is 0,
// and c_O is 0 on points, so every split is the first candidate, (0, m):
// slabs of coordinate 0. Elements are cut in place and end in leaves,
// which copy their ids, so nothing else is copied out. This is the
// "bulk-loading" baseline of Figures 3, 5, 7, 9-11.
func NewBulkLoaded(ps *PointSet, opt Options) *Tree {
	opt = opt.normalize()
	t := &Tree{ps: ps, opt: opt, arena: newNodeArena(ps.Dim),
		scratch: make([]bool, ps.N()), initialN: ps.N()}
	if ps.N() == 0 {
		t.created++
		t.root = t.arena.alloc()
		t.arena.setLeaf(t.root, ps, []int32{})
		return t
	}
	t.root = t.buildFull(newPartition(ps, firstIDs(ps.N())))
	t.cutBuf = nil // sized for the whole set; a crack sizes its own
	return t
}

// buildFull implements BulkLoadChunk: partition into at most M chunks of
// ~equal size, recurse into each.
func (t *Tree) buildFull(p *partition) *node {
	t.created++
	if p.count() <= t.opt.LeafCap {
		nd := t.arena.alloc()
		nd.part = p
		t.toLeaf(nd)
		return nd
	}
	m := t.levelM(p.count())
	parts := t.partitionGreedy(nil, countedPart{part: p}, m, nil)
	children := make([]*node, 0, len(parts))
	for _, cp := range parts {
		children = append(children, t.buildFull(cp.part))
	}
	nd := t.arena.alloc()
	for _, c := range children {
		nd.mbr.ExpandRect(c.mbr)
		nd.pending += c.pending
	}
	nd.children = children
	return nd
}
