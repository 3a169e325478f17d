package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"vkgraph/internal/experiments"
	"vkgraph/vkg"
)

// runBatch is the -batch mode: it measures serving throughput of the
// unified request API on one dataset, comparing a serial TopKTails loop
// against DoBatch on a worker pool, plus the warm (cached) rerun. Three
// phases on a converged index:
//
//	serial   one blocking call at a time (the pre-batch API),
//	batch    the same queries through DoBatch on `parallel` workers,
//	cached   the batch again with the result cache left hot.
//
// The result cache is reset between the first two phases, so serial and
// batch both pay every index descent and the comparison is parallelism, not
// caching.
func runBatch(w io.Writer, dataset, scaleName string, sc experiments.Scale, n, k, parallel int, metricsAddr string) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	ds, err := experiments.LoadDataset(dataset, sc)
	if err != nil {
		return err
	}
	v, err := vkg.Build(vkg.WrapGraph(ds.G), vkg.WithPretrainedModel(ds.M), vkg.WithSeed(1))
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		ops, err := v.ServeOps(metricsAddr)
		if err != nil {
			return err
		}
		defer ops.Close()
		fmt.Fprintf(w, "ops listening on http://%s\n", ops.Addr())
	}

	workload := experiments.Workload(ds.G, n, 99)
	queries := make([]vkg.Query, len(workload))
	for i, q := range workload {
		dir := vkg.Tails
		if !q.Tail {
			dir = vkg.Heads
		}
		queries[i] = vkg.Query{Kind: vkg.TopK, Dir: dir, Entity: q.E, Relation: q.R, K: k}
	}
	ctx := context.Background()

	// Converge the cracking index first: the serving comparison is about a
	// warm index, not about who pays for the splits.
	for i, res := range v.DoBatch(ctx, queries) {
		if res.Err != nil {
			return fmt.Errorf("warm-up query %d: %w", i, res.Err)
		}
	}

	v.ResetCache()
	start := time.Now()
	for _, q := range queries {
		var err error
		if q.Dir == vkg.Heads {
			_, err = v.TopKHeads(q.Entity, q.Relation, k)
		} else {
			_, err = v.TopKTails(q.Entity, q.Relation, k)
		}
		if err != nil {
			return fmt.Errorf("serial query: %w", err)
		}
	}
	serial := time.Since(start)

	v.ResetCache()
	start = time.Now()
	for i, res := range v.DoBatchWorkers(ctx, queries, parallel) {
		if res.Err != nil {
			return fmt.Errorf("batch query %d: %w", i, res.Err)
		}
	}
	batch := time.Since(start)

	start = time.Now()
	for i, res := range v.DoBatchWorkers(ctx, queries, parallel) {
		if res.Err != nil {
			return fmt.Errorf("cached batch query %d: %w", i, res.Err)
		}
	}
	cached := time.Since(start)
	cs := v.CacheStats()

	qps := func(d time.Duration) float64 { return float64(len(queries)) / d.Seconds() }
	fmt.Fprintf(w, "dataset=%s scale=%s queries=%d k=%d workers=%d\n", dataset, scaleName, len(queries), k, parallel)
	fmt.Fprintf(w, "serial:  %10.0f queries/s  (%v total)\n", qps(serial), serial.Round(time.Microsecond))
	fmt.Fprintf(w, "batch:   %10.0f queries/s  (%v total, %.2fx serial)\n",
		qps(batch), batch.Round(time.Microsecond), serial.Seconds()/batch.Seconds())
	fmt.Fprintf(w, "cached:  %10.0f queries/s  (%v total, cache %d hits / %d misses)\n",
		qps(cached), cached.Round(time.Microsecond), cs.Hits, cs.Misses)
	m := v.Metrics()
	fmt.Fprintf(w, "metrics: cache hit rate %.1f%%, %d splits, topk p95 %v, %d coalesced\n",
		100*m.CacheHitRate(), m.CrackSplits, m.TopKLatency.P95.Round(time.Microsecond), m.Coalesced)
	return nil
}
