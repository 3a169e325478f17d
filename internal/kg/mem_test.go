package kg_test

import (
	"runtime"
	"testing"

	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/raceflag"
)

// TestFrozenGraphBytes bounds what a frozen graph keeps: the live heap of
// the default Movie graph (12,420 entities, 131k triples) after a
// collection, at most 350 B per entity. The graph is the triple list, two
// adjacency layouts, the entity columns, the name index and two attribute
// columns; the (entity, relation) maps it replaced held 578 B per entity.
func TestFrozenGraphBytes(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector changes what an allocation costs")
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	g := kggen.Movie(kggen.DefaultMovieConfig())
	runtime.GC()
	runtime.ReadMemStats(&m1)
	perEntity := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(g.NumEntities())
	runtime.KeepAlive(g)
	t.Logf("frozen Movie graph: %.0f B per entity over %d entities, %d triples", perEntity, g.NumEntities(), g.NumTriples())
	const maxBytes = 350
	if perEntity > maxBytes {
		t.Fatalf("a frozen Movie graph keeps %.0f B per entity, want <= %d", perEntity, maxBytes)
	}
}
