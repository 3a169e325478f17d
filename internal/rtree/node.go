package rtree

import "vkgraph/internal/rtree/points"

// node is a tree node in one of three states:
//
//   - internal: children != nil — a fully materialized R-tree node;
//   - leaf: leaf != nil — at most LeafCap point entries, ids and exact
//     coordinates together in the leaf's page (points.Page);
//   - pending: part != nil — a contour element that still holds raw sorted
//     data and will be cracked on demand.
//
// The contour of Definition 2 is exactly the set of pending and leaf nodes.
//
// Records live in fixed-size arena slabs (see arena.go): idx is the
// record's arena index, mbr.Lo/Hi alias the slab's float64 backing — mutate
// the MBR in place (Expand/setMBR), never reassign it — and leaf points at
// the record's own slot in the arena's page slab. The record is 96 bytes;
// the walks read one per node they touch, so it must not grow (a test next
// to the arena's holds it to that).
//
// pending counts the pending elements in the node's subtree, itself
// included: 1 for a pending element, 0 for a leaf, the children's sum for
// an internal node. It fills the record's padding. NeedsCrack and Crack
// stop at a node whose count is 0, before they read its MBR, so a warm
// query pays only for the subtrees that can still change. Every writer
// keeps it exact as it goes (setPending, toLeaf, crackPending, buildFull,
// insertAt and the root build), Load derives it bottom-up, and it is in no
// snapshot and no StructureHash.
type node struct {
	mbr      Rect
	children []*node
	leaf     *points.Page
	part     *partition
	idx      int32 // arena index: slab*arenaSlabSize + offset
	pending  int32 // pending elements in the subtree, itself included
}

func (n *node) isInternal() bool { return n.children != nil }
func (n *node) isLeaf() bool     { return n.leaf != nil }
func (n *node) isPending() bool  { return n.part != nil }

// ids returns the point ids of a contour element, in no particular order.
func (n *node) ids() []int32 {
	if n.isLeaf() {
		return n.leaf.IDs()
	}
	return n.part.ids()
}

// numPoints returns the number of points under the node (O(subtree) for
// internal nodes; used by invariants and stats, not by the hot path).
func (n *node) numPoints() int {
	switch {
	case n.isLeaf():
		return len(n.leaf.IDs())
	case n.isPending():
		return n.part.count()
	default:
		total := 0
		for _, c := range n.children {
			total += c.numPoints()
		}
		return total
	}
}

// countNodes tallies (internal, leaf, pending) node counts in the subtree.
func (n *node) countNodes() (internal, leaf, pending int) {
	switch {
	case n.isLeaf():
		return 0, 1, 0
	case n.isPending():
		return 0, 0, 1
	default:
		internal = 1
		for _, c := range n.children {
			i2, l2, p2 := c.countNodes()
			internal += i2
			leaf += l2
			pending += p2
		}
		return internal, leaf, pending
	}
}

// sizeBytes sums the heap memory the subtree references beyond its arena
// records: child-pointer lists, leaf pages (ids and coordinates), and pending
// partitions. The records themselves (struct, MBR backing, page header)
// live in arena slabs and are accounted once by nodeArena.slabBytes, so the
// two together are the true footprint.
func (n *node) sizeBytes(dim int) int {
	switch {
	case n.isLeaf():
		return n.leaf.SizeBytes()
	case n.isPending():
		return n.part.sizeBytes(dim)
	default:
		sz := cap(n.children) * 8
		for _, c := range n.children {
			sz += c.sizeBytes(dim)
		}
		return sz
	}
}

// height returns the subtree height (leaves and pending elements are
// height 0).
func (n *node) height() int {
	if !n.isInternal() {
		return 0
	}
	h := 0
	for _, c := range n.children {
		if ch := c.height(); ch > h {
			h = ch
		}
	}
	return h + 1
}
