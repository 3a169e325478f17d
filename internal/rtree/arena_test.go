package rtree

import (
	"math/rand"
	"testing"
	"unsafe"
)

// TestArenaFreelistReuse drives crack–insert–delete cycles and checks the
// arena invariants at every step: deleting every point collapses the tree
// and releases all non-root records to the freelist, re-growing the tree
// drains the freelist before carving new slabs, and the live-node count
// always matches what a tree walk finds (CheckInvariants cross-checks both
// directions).
func TestArenaFreelistReuse(t *testing.T) {
	const dim = 2
	ps := clusteredPointSet(1200, dim, 4, 81)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(82))
	universe := BallRect(make([]float64, dim), 1e9)

	for cycle := 0; cycle < 4; cycle++ {
		for i := 0; i < 8; i++ {
			tr.Crack(randomQuery(rng, dim, 0, 10))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d after cracks: %v", cycle, err)
		}
		if tr.Stats().TotalNodes < 3 {
			t.Fatalf("cycle %d: tree did not grow (%d nodes); the release path below would be vacuous", cycle, tr.Stats().TotalNodes)
		}

		// Delete every point: all leaves and internal nodes empty out and
		// must be released to the freelist, not leaked. Only the root
		// record survives (it reverts to an empty leaf).
		preNodes := tr.Stats().TotalNodes
		freeBefore := len(tr.arena.free)
		victims := tr.Search(universe)
		if len(victims) != ps.N() {
			t.Fatalf("cycle %d: universe search found %d of %d points", cycle, len(victims), ps.N())
		}
		for _, id := range victims {
			if !tr.Delete(id) {
				t.Fatalf("cycle %d: Delete(%d) returned false for a searched id", cycle, id)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d after deleting all: %v", cycle, err)
		}
		if got := tr.arena.nodesInUse(); got != 1 {
			t.Fatalf("cycle %d: %d arena records in use after deleting everything, want 1 (the root)", cycle, got)
		}
		// Exactly the preNodes-1 non-root records must have been released.
		if got, want := len(tr.arena.free), freeBefore+preNodes-1; got != want {
			t.Fatalf("cycle %d: freelist has %d records after collapsing a %d-node tree, want %d",
				cycle, got, preNodes, want)
		}

		// Re-insert and re-crack: structural growth must drain the
		// freelist before carving fresh slabs.
		slabsBefore := len(tr.arena.slabs)
		for _, id := range victims {
			tr.Insert(id)
		}
		for i := 0; i < 8; i++ {
			tr.Crack(randomQuery(rng, dim, 0, 10))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d after re-inserts: %v", cycle, err)
		}
		if len(tr.arena.slabs) > slabsBefore && len(tr.arena.free) > 0 {
			t.Fatalf("cycle %d: arena carved a new slab (%d -> %d) while %d freed records sat unused",
				cycle, slabsBefore, len(tr.arena.slabs), len(tr.arena.free))
		}
		if got := len(tr.Search(universe)); got != ps.N() {
			t.Fatalf("cycle %d: universe search found %d of %d points after re-insert", cycle, got, ps.N())
		}
	}
}

// TestArenaStatsConsistency pins the O(1) ArenaStats to the arena's
// internal bookkeeping and to Stats().
func TestArenaStatsConsistency(t *testing.T) {
	ps := clusteredPointSet(800, 3, 4, 83)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(84))
	for i := 0; i < 10; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	inUse, free, slabBytes := tr.ArenaStats()
	st := tr.Stats()
	if st.ArenaNodesInUse != inUse || st.ArenaNodesFree != free || st.ArenaBytes != slabBytes {
		t.Fatalf("Stats arena fields (%d, %d, %d) != ArenaStats (%d, %d, %d)",
			st.ArenaNodesInUse, st.ArenaNodesFree, st.ArenaBytes, inUse, free, slabBytes)
	}
	if inUse != st.TotalNodes {
		t.Fatalf("arena inUse %d != TotalNodes %d", inUse, st.TotalNodes)
	}
	if got := len(tr.arena.slabs) * arenaSlabSize; got != inUse+free {
		t.Fatalf("slab capacity %d != inUse %d + free %d", got, inUse, free)
	}
	if slabBytes <= 0 || st.SizeBytes < slabBytes {
		t.Fatalf("SizeBytes %d must include slab bytes %d", st.SizeBytes, slabBytes)
	}
}

// TestArenaPointerStability: records allocated early must stay at their
// address as slabs grow — the tree aliases *node across the whole build.
func TestArenaPointerStability(t *testing.T) {
	a := newNodeArena(3)
	first := a.alloc()
	firstAddr := first
	for i := 0; i < arenaSlabSize*3; i++ {
		a.alloc()
	}
	if a.at(first.idx) != firstAddr {
		t.Fatal("arena moved a record while growing")
	}
	if len(first.mbr.Lo) != 3 || len(first.mbr.Hi) != 3 {
		t.Fatalf("record MBR lost its slab backing: lo %d hi %d", len(first.mbr.Lo), len(first.mbr.Hi))
	}
}

// TestNodeRecordSize: every walk reads one record per node it touches, and
// a 120-byte record measured 3–6 % slower on the converged top-k than the
// 112-byte one this replaced. A field added to node shows up here first.
func TestNodeRecordSize(t *testing.T) {
	if sz := unsafe.Sizeof(node{}); sz > 96 {
		t.Fatalf("node record is %d bytes, want at most 96", sz)
	}
}
