package vkgraph

// This file is the benchmark harness of deliverable (d): one testing.B
// benchmark per table/figure of the paper's evaluation (Section VI), built
// on the same drivers as cmd/vkg-bench. Datasets and embeddings are cached
// on disk (see internal/experiments), so the first `go test -bench .` pays
// TransE training once.
//
// Figure mapping:
//
//	Table I  -> BenchmarkTable1Stats
//	Fig 3    -> BenchmarkFig3TopK/*        (Freebase, per method)
//	Fig 4    -> BenchmarkFig4Accuracy
//	Fig 5    -> BenchmarkFig5TopK/*        (Movie, alpha 3 vs 6, H2-ALSH)
//	Fig 6    -> BenchmarkFig6Accuracy
//	Fig 7    -> BenchmarkFig7TopK/*        (Amazon, H2-ALSH k=2 vs k=10)
//	Fig 8    -> BenchmarkFig8Accuracy
//	Fig 9    -> BenchmarkFig9IndexGrowth   (node counts, Freebase)
//	Fig 10   -> BenchmarkFig10IndexSize    (bytes, Movie)
//	Fig 11   -> BenchmarkFig11IndexSize    (bytes, Amazon)
//	Fig 12   -> BenchmarkFig12Count/*      (per sample size a)
//	Fig 13   -> BenchmarkFig13AvgYear/*
//	Fig 14   -> BenchmarkFig14AvgQuality/*
//	Fig 15   -> BenchmarkFig15MaxPopularity/*
//	Fig 16   -> BenchmarkFig16MinYear/*
//
// Benchmarks report method-meaningful extra metrics via b.ReportMetric
// (nodes, splits, precision, accuracy) so a single -bench run regenerates
// the paper's series, not just wall-clock times.

import (
	"context"
	"fmt"
	"os"
	"testing"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/experiments"
	"vkgraph/internal/kg"
	"vkgraph/vkg"
)

// benchScale lets CI force tiny datasets: VKG_BENCH_SCALE=tiny.
func benchScale() experiments.Scale {
	if os.Getenv("VKG_BENCH_SCALE") == "tiny" {
		return experiments.Tiny
	}
	return experiments.Full
}

func mustDataset(b *testing.B, name string) *experiments.Dataset {
	b.Helper()
	ds, err := experiments.LoadDataset(name, benchScale())
	if err != nil {
		b.Fatalf("loading %s: %v", name, err)
	}
	return ds
}

func mustRelation(b *testing.B, ds *experiments.Dataset, name string) kg.RelationID {
	b.Helper()
	rel, ok := ds.G.RelationByName(name)
	if !ok {
		b.Fatalf("dataset %s has no relation %q", ds.Name, name)
	}
	return rel
}

// benchTopKMethod measures steady-state per-query latency of one method on
// one dataset, after a 20-query warm-up that lets the cracking index take
// shape (the Avg bars of Figs. 3, 5, 7).
func benchTopKMethod(b *testing.B, dataset string, spec experiments.MethodSpec, k int, singleRel bool) {
	ds := mustDataset(b, dataset)
	var rel kg.RelationID
	var workload []experiments.Query
	if singleRel {
		rel = mustRelation(b, ds, "likes")
		workload = experiments.RelationWorkload(ds.G, rel, 4096, 99)
	} else {
		workload = experiments.Workload(ds.G, 4096, 99)
	}
	r, err := experiments.NewRunner(ds, spec, rel)
	if err != nil {
		b.Fatalf("runner: %v", err)
	}
	for i := 0; i < 20; i++ {
		r.TopK(workload[i], k)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.TopK(workload[20+i%(len(workload)-20)], k)
	}
}

func BenchmarkTable1Stats(b *testing.B) {
	ds := mustDataset(b, "movie")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ds.G.Stats()
	}
}

func BenchmarkFig3TopK(b *testing.B) {
	for _, m := range []string{"noindex", "phtree", "bulk", "crack", "crack-2", "crack-4"} {
		b.Run(m, func(b *testing.B) {
			benchTopKMethod(b, "freebase", experiments.MethodSpec{Method: m}, 10, false)
		})
	}
}

func BenchmarkFig5TopK(b *testing.B) {
	specs := []experiments.MethodSpec{
		{Method: "noindex"},
		{Method: "bulk", Alpha: 3},
		{Method: "bulk", Alpha: 6},
		{Method: "crack", Alpha: 3},
		{Method: "crack", Alpha: 6},
		{Method: "h2alsh"},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(specLabel(spec), func(b *testing.B) {
			benchTopKMethod(b, "movie", spec, 10, true)
		})
	}
}

func BenchmarkFig7TopK(b *testing.B) {
	specs := []experiments.MethodSpec{
		{Method: "noindex"},
		{Method: "bulk"},
		{Method: "crack"},
		{Method: "h2alsh", K: 2, Label: "h2alsh-k2"},
		{Method: "h2alsh", K: 10, Label: "h2alsh-k10"},
	}
	for _, spec := range specs {
		spec := spec
		b.Run(specLabel(spec), func(b *testing.B) {
			k := 10
			if spec.K > 0 {
				k = spec.K
			}
			benchTopKMethod(b, "amazon", spec, k, true)
		})
	}
}

func specLabel(s experiments.MethodSpec) string {
	if s.Label != "" {
		return s.Label
	}
	l := s.Method
	if s.Alpha > 0 {
		l = fmt.Sprintf("%s-a%d", l, s.Alpha)
	}
	return l
}

// benchAccuracy runs the precision figure once per benchmark iteration and
// reports the mean precision@10 of the cracking index as a metric.
func benchAccuracy(b *testing.B, dataset string, singleRel bool) {
	ds := mustDataset(b, dataset)
	cfg := experiments.AccuracyFigureConfig{Queries: 30, Warm: 5}
	if singleRel {
		cfg.Rel = mustRelation(b, ds, "likes")
		cfg.SingleRel = true
	}
	var last float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AccuracyFigure(ds, []experiments.MethodSpec{{Method: "crack"}}, cfg)
		if err != nil {
			b.Fatalf("AccuracyFigure: %v", err)
		}
		last = rows[0].Precision
	}
	b.ReportMetric(last, "precision@10")
}

func BenchmarkFig4Accuracy(b *testing.B) { benchAccuracy(b, "freebase", false) }
func BenchmarkFig6Accuracy(b *testing.B) { benchAccuracy(b, "movie", true) }
func BenchmarkFig8Accuracy(b *testing.B) { benchAccuracy(b, "amazon", true) }

// benchIndexGrowth runs the size figure once per iteration and reports the
// convergence point: crack nodes and bytes after 20 queries vs bulk.
func benchIndexGrowth(b *testing.B, dataset string) {
	ds := mustDataset(b, dataset)
	var last experiments.SizeRow
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SizeFigure(ds, experiments.SizeFigureConfig{QueryCounts: []int{20}})
		if err != nil {
			b.Fatalf("SizeFigure: %v", err)
		}
		last = rows[0]
	}
	b.ReportMetric(float64(last.CrackNodes), "crack-nodes")
	b.ReportMetric(float64(last.BulkNodes), "bulk-nodes")
	b.ReportMetric(float64(last.CrackBytes), "crack-bytes")
	b.ReportMetric(float64(last.BulkBytes), "bulk-bytes")
}

func BenchmarkFig9IndexGrowth(b *testing.B) { benchIndexGrowth(b, "freebase") }
func BenchmarkFig10IndexSize(b *testing.B)  { benchIndexGrowth(b, "movie") }
func BenchmarkFig11IndexSize(b *testing.B)  { benchIndexGrowth(b, "amazon") }

// benchAggregate measures per-query aggregate latency at one sample size a
// and reports the paper's accuracy metric against the exhaustive ground
// truth.
func benchAggregate(b *testing.B, dataset string, kind core.AggKind, attr string, a int) {
	ds := mustDataset(b, dataset)
	p := core.DefaultParams()
	p.Attrs = []string{attr}
	eng, err := core.NewEngine(ds.G, ds.M, core.Crack, p)
	if err != nil {
		b.Fatalf("engine: %v", err)
	}
	workload := experiments.Workload(ds.G, 512, 77)
	spec := core.AggQuery{Kind: kind, Attr: attr, PTau: 0.01, MaxAccess: a}
	if kind == core.Count {
		spec.Attr = ""
	}

	// Accuracy vs exact on a small sample, reported as a metric.
	var acc, accN float64
	for i := 0; i < 10; i++ {
		q := workload[i]
		var est, exact *core.AggResult
		var err1, err2 error
		if q.Tail {
			est, err1 = eng.AggregateTails(q.E, q.R, spec)
			exact, err2 = eng.AggregateTailsExact(q.E, q.R, spec)
		} else {
			est, err1 = eng.AggregateHeads(q.E, q.R, spec)
			exact, err2 = eng.AggregateHeadsExact(q.E, q.R, spec)
		}
		if err1 != nil || err2 != nil {
			b.Fatalf("aggregate: %v / %v", err1, err2)
		}
		if exact.Value != 0 {
			e := 1 - abs(est.Value-exact.Value)/abs(exact.Value)
			if e < 0 {
				e = 0
			}
			acc += e
			accN++
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := workload[i%len(workload)]
		if q.Tail {
			_, _ = eng.AggregateTails(q.E, q.R, spec)
		} else {
			_, _ = eng.AggregateHeads(q.E, q.R, spec)
		}
	}
	b.StopTimer()
	if accN > 0 {
		b.ReportMetric(acc/accN, "accuracy")
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func benchAggSweep(b *testing.B, dataset string, kind core.AggKind, attr string) {
	for _, a := range []int{5, 20, 100, 0} {
		label := fmt.Sprintf("a=%d", a)
		if a == 0 {
			label = "a=all"
		}
		b.Run(label, func(b *testing.B) { benchAggregate(b, dataset, kind, attr, a) })
	}
}

// benchBatchSetup builds a VKG over the Movie dataset through the public
// API and a top-k workload in Query form, with the cracking index converged
// so the serial/batch comparison measures serving, not splitting.
func benchBatchSetup(b *testing.B, n int) (*vkg.VKG, []vkg.Query) {
	b.Helper()
	ds := mustDataset(b, "movie")
	v, err := vkg.Build(vkg.WrapGraph(ds.G), vkg.WithPretrainedModel(ds.M), vkg.WithSeed(1))
	if err != nil {
		b.Fatalf("Build: %v", err)
	}
	workload := experiments.Workload(ds.G, n, 99)
	queries := make([]vkg.Query, len(workload))
	for i, q := range workload {
		dir := vkg.Tails
		if !q.Tail {
			dir = vkg.Heads
		}
		queries[i] = vkg.Query{Kind: vkg.TopK, Dir: dir, Entity: q.E, Relation: q.R, K: 10}
	}
	for i, res := range v.DoBatch(context.Background(), queries) {
		if res.Err != nil {
			b.Fatalf("warm-up query %d: %v", i, res.Err)
		}
	}
	return v, queries
}

// BenchmarkBatchServing compares one full pass over a 512-query workload:
// the serial one-call-at-a-time loop, DoBatch on the worker pool (cache
// reset each pass, so the win is parallelism + coalescing), and DoBatch
// with the result cache hot. Queries/s is reported as a metric.
func BenchmarkBatchServing(b *testing.B) {
	const n = 512
	pass := func(b *testing.B, run func(v *vkg.VKG, queries []vkg.Query)) {
		v, queries := benchBatchSetup(b, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(v, queries)
		}
		b.StopTimer()
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
	}
	b.Run("serial", func(b *testing.B) {
		pass(b, func(v *vkg.VKG, queries []vkg.Query) {
			v.ResetCache()
			for _, q := range queries {
				var err error
				if q.Dir == vkg.Heads {
					_, err = v.TopKHeads(q.Entity, q.Relation, q.K)
				} else {
					_, err = v.TopKTails(q.Entity, q.Relation, q.K)
				}
				if err != nil {
					b.Fatalf("serial: %v", err)
				}
			}
		})
	})
	batch := func(v *vkg.VKG, queries []vkg.Query) {
		v.ResetCache()
		for i, res := range v.DoBatch(context.Background(), queries) {
			if res.Err != nil {
				b.Fatalf("batch query %d: %v", i, res.Err)
			}
		}
	}
	b.Run("batch", func(b *testing.B) { pass(b, batch) })
	b.Run("cached", func(b *testing.B) {
		pass(b, func(v *vkg.VKG, queries []vkg.Query) {
			for i, res := range v.DoBatch(context.Background(), queries) {
				if res.Err != nil {
					b.Fatalf("cached query %d: %v", i, res.Err)
				}
			}
		})
	})
	// The cold variant rebuilds the engine every iteration, so each pass pays
	// the full cracking cost; the reported metrics are the time its queries
	// spent waiting for a write lock and holding the index write lock.
	b.Run("cold", func(b *testing.B) {
		ds := mustDataset(b, "movie")
		workload := experiments.Workload(ds.G, n, 99)
		queries := make([]vkg.Query, len(workload))
		for i, q := range workload {
			dir := vkg.Tails
			if !q.Tail {
				dir = vkg.Heads
			}
			queries[i] = vkg.Query{Kind: vkg.TopK, Dir: dir, Entity: q.E, Relation: q.R, K: 10}
		}
		var wait, hold time.Duration
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			v, err := vkg.Build(vkg.WrapGraph(ds.G), vkg.WithPretrainedModel(ds.M), vkg.WithSeed(1))
			if err != nil {
				b.Fatalf("Build: %v", err)
			}
			b.StartTimer()
			for j, res := range v.DoBatchWorkers(context.Background(), queries, 8) {
				if res.Err != nil {
					b.Fatalf("cold query %d: %v", j, res.Err)
				}
			}
			b.StopTimer()
			m := v.Metrics()
			wait += time.Duration(m.WriteLockWait.Count) * m.WriteLockWait.Mean
			hold += time.Duration(m.CrackWriteLock.Count) * m.CrackWriteLock.Mean
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(wait.Seconds()/float64(b.N), "lock-wait-s/op")
		b.ReportMetric(hold.Seconds()/float64(b.N), "lock-hold-s/op")
	})
}

func BenchmarkFig12Count(b *testing.B)         { benchAggSweep(b, "freebase", core.Count, "popularity") }
func BenchmarkFig13AvgYear(b *testing.B)       { benchAggSweep(b, "movie", core.Avg, "year") }
func BenchmarkFig14AvgQuality(b *testing.B)    { benchAggSweep(b, "amazon", core.Avg, "quality") }
func BenchmarkFig15MaxPopularity(b *testing.B) { benchAggSweep(b, "freebase", core.Max, "popularity") }
func BenchmarkFig16MinYear(b *testing.B)       { benchAggSweep(b, "movie", core.Min, "year") }
