package rtree

import (
	"sync/atomic"
	"unsafe"
)

// Node arena. Cracking used to allocate every tree node individually, so a
// converged index was tens of thousands of pointer-chased heap objects the
// GC traced on every cycle. The arena packs node records into fixed-size
// slabs instead: each slab is one allocation of arenaSlabSize records plus
// one float64 block backing all of its MBRs, so the GC sees two objects per
// slab instead of hundreds, and records that are structurally adjacent
// (children created by the same crack) are usually memory-adjacent too.
//
// Slabs are never reallocated, so *node pointers stay valid for the life of
// the tree; every record also carries its arena index (slab*size+offset),
// the address-free form a paged or persisted node format can use directly.
// Records are never released or recycled: a crack turns the pending record
// it splits into the internal node over the new children, which take fresh
// records, and a reload builds a new arena and drops the old one whole.
type nodeArena struct {
	dim   int
	slabs [][]node
	// stats holds, beside each slab and out of the walks' cache lines, each
	// record's cached element statistics (attrStats in ball.go). Aggregates
	// fill a slot under the index read lock — hence atomic: readers may race
	// to store equal values — and Insert, NoteAttr and a crack of the
	// element clear it.
	stats [][]atomic.Pointer[[]AttrStats]
	// pages holds, beside each slab, each record's leaf page header; a
	// leaf's node.leaf points at its own slot, so becoming a leaf allocates
	// the page's coordinates and nothing else.
	pages [][]leafPage
	next  int // records handed out from the newest slab
}

// arenaSlabSize is the number of node records per slab: large enough that
// slab overhead is noise, small enough that a tiny index doesn't hold
// megabytes.
const arenaSlabSize = 256

func newNodeArena(dim int) *nodeArena {
	return &nodeArena{dim: dim, next: arenaSlabSize}
}

// at resolves an arena index to its record.
func (a *nodeArena) at(idx int32) *node {
	return &a.slabs[idx/arenaSlabSize][idx%arenaSlabSize]
}

// setLeaf makes nd a leaf over ids, which the page takes over, with their
// exact rows copied out of ps.
func (a *nodeArena) setLeaf(nd *node, ps *PointSet, ids []int32) {
	nd.leaf = &a.pages[nd.idx/arenaSlabSize][nd.idx%arenaSlabSize]
	nd.leaf.fill(ps, ids)
}

// statsOf resolves a record to its statistics slot.
func (a *nodeArena) statsOf(nd *node) *atomic.Pointer[[]AttrStats] {
	return &a.stats[nd.idx/arenaSlabSize][nd.idx%arenaSlabSize]
}

// alloc hands out the next record of the newest slab, carving a new slab
// when it is full: a zero record with an inverted MBR that the first
// Expand snaps to its point.
func (a *nodeArena) alloc() *node {
	if a.next == arenaSlabSize {
		slab := make([]node, arenaSlabSize)
		backing := make([]float64, arenaSlabSize*2*a.dim)
		base := int32(len(a.slabs)) * arenaSlabSize
		for i := range slab {
			off := i * 2 * a.dim
			slab[i].idx = base + int32(i)
			slab[i].mbr = Rect{
				Lo: backing[off : off+a.dim : off+a.dim],
				Hi: backing[off+a.dim : off+2*a.dim : off+2*a.dim],
			}
		}
		a.slabs = append(a.slabs, slab)
		a.stats = append(a.stats, make([]atomic.Pointer[[]AttrStats], arenaSlabSize))
		a.pages = append(a.pages, make([]leafPage, arenaSlabSize))
		a.next = 0
	}
	nd := &a.slabs[len(a.slabs)-1][a.next]
	a.next++
	nd.mbr.reset()
	return nd
}

// nodesInUse and nodesFree report the arena occupancy — the records handed
// out and the ones the newest slab has yet to hand out; slabBytes the
// memory retained by the slabs themselves (records, MBR backing,
// statistics slots and page headers), which is the true per-node
// footprint — node records have no individual heap identity.
func (a *nodeArena) nodesInUse() int { return len(a.slabs)*arenaSlabSize - a.nodesFree() }

func (a *nodeArena) nodesFree() int {
	if len(a.slabs) == 0 {
		return 0
	}
	return arenaSlabSize - a.next
}

func (a *nodeArena) slabBytes() int {
	per := arenaSlabSize * (int(unsafe.Sizeof(node{})) + 2*a.dim*8 +
		int(unsafe.Sizeof(a.stats[0][0])) + int(unsafe.Sizeof(leafPage{})))
	return len(a.slabs) * per
}

// dropPage ends a record's time as a leaf, emptying its page slot so the
// ids and coordinates can be collected.
func (n *node) dropPage() {
	if n.leaf != nil {
		*n.leaf = leafPage{}
		n.leaf = nil
	}
}

// setMBR copies r into the node's slab-backed MBR. Node MBRs must never be
// assigned by slice header (nd.mbr = r) — that would detach the record from
// its slab backing; in-place mutation (Expand) is fine.
func (n *node) setMBR(r Rect) { n.mbr.set(r) }
