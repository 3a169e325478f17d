package core

import (
	"context"
	"runtime"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/raceflag"
)

// TestWarmTopKAllocations guards what an uncached top-k on a converged index
// allocates: the walk takes its frontier from the pool and the top-k set is
// sized by k and never regrows, so what is left is the answer itself, the JL
// transform, and the key's cache slot — at most 20 objects and 4 KB per
// query. A repeat of the same query is a cache hit and allocates nothing.
func TestWarmTopKAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	p := defaultTestParams()
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
	// AllocsPerRun makes runs+1 calls, the bytes loop runs more: every one
	// must be a distinct query to stay uncached.
	const runs = 50
	if len(reqs) < 2*runs+1 {
		t.Fatalf("need %d distinct queries to stay uncached, have %d", 2*runs+1, len(reqs))
	}
	next := 0
	query := func() {
		if resp := eng.Do(ctx, reqs[next]); resp.Err != nil {
			t.Fatal(resp.Err)
		}
		next++
	}
	allocs := testing.AllocsPerRun(runs, query)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		query()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	if hits := eng.CacheStats().Hits; hits != 0 {
		t.Fatalf("%d cache hits: the guard must measure uncached queries", hits)
	}
	t.Logf("warm uncached top-k: %v allocs, %.0f bytes per query", allocs, bytes)
	const maxAllocs, maxBytes = 20, 4 << 10
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("warm uncached top-k allocates %v objects, %.0f bytes per query; want <= %d and <= %d",
			allocs, bytes, maxAllocs, maxBytes)
	}

	hit := testing.AllocsPerRun(runs, func() {
		if resp := eng.Do(ctx, reqs[0]); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	})
	if hits := eng.CacheStats().Hits; hits < runs {
		t.Fatalf("%d cache hits after %d repeats: the repeats must be served from the cache", hits, runs)
	}
	if hit != 0 {
		t.Fatalf("a cached top-k allocates %v objects per query, want 0", hit)
	}
}

// TestWarmAggregateAllocations guards what an aggregate on a converged index
// allocates: the accessed sample, the answer and a few boxes — a constant,
// and under 16 KB, however many points the ball holds. It measures two
// graphs whose balls differ at least fourfold.
func TestWarmAggregateAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	measure := func(cfg kggen.MovieConfig) (allocs, bytes float64, ball int) {
		g := kggen.Movie(cfg)
		tc := embedding.DefaultConfig()
		tc.Epochs = 4
		tr, err := embedding.Train(g, tc)
		if err != nil {
			t.Fatal(err)
		}
		p := defaultTestParams()
		eng, err := NewEngine(g, tr.Model, Crack, p)
		if err != nil {
			t.Fatal(err)
		}
		likes, _ := g.RelationByName("likes")
		users := g.EntitiesOfType("user")[:50]
		ctx := context.Background()
		next := 0
		query := func() {
			req := Request{Kind: KindAggregate, Dir: DirTail, Entity: users[next%len(users)], Rel: likes,
				Agg: AggQuery{Kind: Avg, Attr: "year", MaxAccess: 50}}
			resp := eng.Do(ctx, req)
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			ball += resp.Agg.BallSize
			next++
		}
		// Two passes converge the index and fill the element statistics.
		for i := 0; i < 2*len(users); i++ {
			query()
		}
		ball, next = 0, 0
		allocs = testing.AllocsPerRun(len(users)-1, query)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < len(users); i++ {
			query()
		}
		runtime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / float64(len(users)), ball / next
	}
	small := kggen.TinyMovieConfig()
	large := small
	large.Users, large.Movies, large.Ratings = 4*small.Users, 5*small.Movies, 4*small.Ratings
	a1, b1, ball1 := measure(small)
	a2, b2, ball2 := measure(large)
	t.Logf("balls of %d and %d points: %v and %v allocs, %.0f and %.0f bytes per query", ball1, ball2, a1, a2, b1, b2)
	if ball1 < 50 || ball2 < 4*ball1 {
		t.Fatalf("balls of %d and %d points: the second should be at least four times the first", ball1, ball2)
	}
	const maxAllocs, maxBytes = 20, 16 << 10
	if a1 > maxAllocs || a2 > maxAllocs || b1 > maxBytes || b2 > maxBytes {
		t.Fatalf("warm AVG/MaxAccess 50 allocates %v and %v objects, %.0f and %.0f bytes per query; want <= %d and <= %d whatever the ball",
			a1, a2, b1, b2, maxAllocs, maxBytes)
	}
}
