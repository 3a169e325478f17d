package vkg

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"vkgraph/internal/raceflag"
)

// TestWarmDoBatchAllocations guards what the batch path adds on top of a
// warm Do. DoBatch lowers the queries, fans them over the worker pool and
// writes each answer in place, so a batch allocates its request and result
// slices and the pool's handoff once, and each query only what Do does. An
// uncached batch of 64 top-k queries on a converged index stays within 20
// objects and 4 KB per query; a repeat of the same batch, served from the
// cache, within 16 objects per batch whatever its length.
func TestWarmDoBatchAllocations(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	const size, runs = 64, 10
	// AllocsPerRun makes runs+1 calls, the bytes loop runs more. Batch b
	// asks every user for 2+b answers, so no batch repeats an earlier key.
	batches := make([][]Query, 2*runs+1)
	for b := range batches {
		qs := make([]Query, size)
		for i := range qs {
			u, ok := g.EntityByName(fmt.Sprintf("user%d", i))
			if !ok {
				t.Fatalf("no user%d", i)
			}
			qs[i] = Query{Entity: u, Relation: ratesHigh, K: 2 + b}
		}
		batches[b] = qs
	}
	ctx := context.Background()
	// AllocsPerRun pins GOMAXPROCS to 1, where DoBatch's default pool is a
	// serial loop: name the workers so the pool's handoff is measured.
	const workers = 4
	run := func(qs []Query) {
		for i, res := range v.DoBatchWorkers(ctx, qs, workers) {
			if res.Err != nil {
				t.Fatalf("query %d: %v", i, res.Err)
			}
		}
	}
	// Two passes converge the index for these queries: the second splits
	// nothing the first left.
	for pass := 0; pass < 2; pass++ {
		for _, qs := range batches {
			run(qs)
		}
		v.ResetCache()
	}
	next := 0
	batch := func() {
		run(batches[next])
		next++
	}
	allocs := testing.AllocsPerRun(runs, batch) / size
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		batch()
	}
	runtime.ReadMemStats(&m1)
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs * size)
	if hits := v.CacheStats().Hits; hits != 0 {
		t.Fatalf("%d cache hits: the guard must measure uncached queries", hits)
	}

	cached := testing.AllocsPerRun(runs, func() { run(batches[0]) })
	if hits := v.CacheStats().Hits; hits < runs*size {
		t.Fatalf("%d cache hits after %d repeated batches of %d: the repeats must be served from the cache", hits, runs, size)
	}
	t.Logf("warm uncached DoBatch: %.2f allocs, %.0f bytes per query; cached batch of %d: %v allocs",
		allocs, bytes, size, cached)
	const maxAllocs, maxBytes, maxCachedBatch = 20, 4 << 10, 16
	if allocs > maxAllocs || bytes > maxBytes {
		t.Fatalf("warm uncached DoBatch allocates %.2f objects, %.0f bytes per query; want <= %d and <= %d",
			allocs, bytes, maxAllocs, maxBytes)
	}
	if cached > maxCachedBatch {
		t.Fatalf("a cached batch of %d allocates %v objects, want <= %d", size, cached, maxCachedBatch)
	}
}
