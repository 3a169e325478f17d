package rtree

import "sync/atomic"

// AccessCounters accumulate index node accesses across traversals — the
// cost the paper's Lemma 3 bounds. WalkWithin and SummarizeBall count the
// nodes they expand in their pooled frontier, by kind, and flush once per
// traversal, so the per-node cost is a plain integer increment and the
// per-traversal cost is at most three atomic adds. Safe to read
// concurrently with traversals.
type AccessCounters struct {
	Internal atomic.Uint64
	Leaf     atomic.Uint64
	Pending  atomic.Uint64
}

func (c *AccessCounters) flush(in, lf, pd uint64) {
	if c == nil {
		return
	}
	if in > 0 {
		c.Internal.Add(in)
	}
	if lf > 0 {
		c.Leaf.Add(lf)
	}
	if pd > 0 {
		c.Pending.Add(pd)
	}
}

// SetAccessCounters attaches a node-access sink to the tree (nil detaches).
// Call before serving; the field itself is not synchronized.
func (t *Tree) SetAccessCounters(c *AccessCounters) { t.access = c }

// Splits returns the number of binary splits applied to the tree so far.
// Unlike Stats, it is O(1) and intended for cheap before/after deltas around
// a Crack call; the caller must hold the same lock as for Crack.
func (t *Tree) Splits() int { return t.splits }

// Nodes returns the number of tree nodes: the arena records handed out,
// which CheckInvariants holds equal to Stats().TotalNodes. O(1); same
// locking contract as Splits (unlike Stats, which walks the tree).
func (t *Tree) Nodes() int { return t.arena.nodesInUse() }
