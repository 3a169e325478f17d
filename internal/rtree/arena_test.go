package rtree

import (
	"math/rand"
	"testing"
	"unsafe"
)

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
