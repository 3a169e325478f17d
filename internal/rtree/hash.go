package rtree

import (
	"encoding/binary"
	"hash/crc64"
	"math"
)

// hashTab is shared by every StructureHash call; crc64.MakeTable caches
// internally but holding the table avoids the lookup per node.
var hashTab = crc64.MakeTable(crc64.ECMA)

// StructureHash digests the tree's structural state — node kinds, child
// counts, MBRs, and point ids in stored order — into one 64-bit value. Two
// trees hash equal iff a query walk would visit identical nodes in
// identical order, which is the contract WAL replay must meet: a snapshot
// plus replayed crack/insert records must rebuild this exact shape. A box
// is hashed by value: a zero bound is hashed as +0 whichever sign it has,
// as the sign of a zero depends on the order in which a scan met the
// points, and comparisons cannot tell them apart.
//
// Access counters (queries, splits) are deliberately excluded:
// the live tree counts every query via NoteQuery while replay only re-runs
// the structural subset, so counters legitimately diverge between a tree
// and its replayed twin.
func (t *Tree) StructureHash() uint64 {
	t.ensureRoot()
	h := crc64.New(hashTab)
	var buf [8]byte
	putU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putIDs := func(ids []int32) {
		putU64(uint64(len(ids)))
		for _, id := range ids {
			putU64(uint64(uint32(id)))
		}
	}
	putU64(uint64(t.ps.Dim))
	putU64(uint64(t.initialN))
	// The word that once held the length of the tree's tombstone set, always
	// empty in a tree saved or replayed by an engine: kept so that no
	// recorded hash moves.
	putU64(0)
	putBound := func(v float64) {
		if v == 0 {
			v = 0 // -0 → +0
		}
		putU64(math.Float64bits(v))
	}
	var walk func(nd *node)
	walk = func(nd *node) {
		for _, v := range nd.mbr.Lo {
			putBound(v)
		}
		for _, v := range nd.mbr.Hi {
			putBound(v)
		}
		switch {
		case nd.isInternal():
			putU64(0)
			putU64(uint64(len(nd.children)))
			for _, c := range nd.children {
				walk(c)
			}
		case nd.isLeaf():
			putU64(1)
			putIDs(nd.leaf.ids)
		default:
			putU64(2)
			putIDs(nd.part.ids())
		}
	}
	walk(t.root)
	return h.Sum64()
}
