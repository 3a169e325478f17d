package core

import (
	"context"
	"testing"

	"vkgraph/internal/raceflag"
)

// TestWarmTopKAllocations guards the per-query allocation count of an
// uncached top-k on a converged index: the walk takes its frontier from the
// pool and the top-k set never regrows, so what is left is the answer
// itself, the JL transform, the in-flight slot and the cache entry.
func TestWarmTopKAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p := defaultTestParams()
	p.Shards = 2
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	reqs := make([]Request, len(users))
	for i, u := range users {
		reqs[i] = Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 10}
	}
	ctx := context.Background()
	// Two passes converge the index for these queries: the second splits
	// nothing the first left.
	for pass := 0; pass < 2; pass++ {
		for _, r := range reqs {
			if resp := eng.Do(ctx, r); resp.Err != nil {
				t.Fatal(resp.Err)
			}
		}
		eng.ResetCache()
	}
	const runs = 50
	if len(reqs) <= runs {
		t.Fatalf("need more than %d distinct queries to stay uncached, have %d", runs, len(reqs))
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if resp := eng.Do(ctx, reqs[next]); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		next++
	})
	if hits := eng.CacheStats().Hits; hits != 0 {
		t.Fatalf("%d cache hits: the guard must measure uncached queries", hits)
	}
	if allocs > 20 {
		t.Fatalf("warm uncached top-k allocates %v objects per query, want <= 20", allocs)
	}
	t.Logf("warm uncached top-k: %v allocs/query", allocs)
}
