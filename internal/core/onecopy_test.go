package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
)

// TestEngineReRanksOnModelRows: the model's Entities block is the only copy
// of S1, and InsertEntity reallocates it. Afterwards a top-k that reaches
// the new entity reports it — and everything else — at the exact S1
// distances of the linear scan, and aggregates equal those of an engine
// built afresh over the grown graph and model. Building an engine adds less
// than half the model's bytes to the live heap: no second copy of the rows.
func TestEngineReRanksOnModelRows(t *testing.T) {
	p := defaultTestParams()
	p.Eps = 50 // the S2 ball holds every candidate: the index answer is the scan's
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	u1, u2 := users[0], users[1]
	if _, err := eng.TopK(DirTail, u2, likes, 10); err != nil { // crack first: the insert lands in a shaped index
		t.Fatal(err)
	}
	rows := unsafe.SliceData(eng.m.Entities)
	nm, err := eng.InsertEntity("new-movie", "movie", []Fact{{Rel: likes, Other: u1}}, map[string]float64{"year": 2024})
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.SliceData(eng.m.Entities) == rows {
		t.Fatal("InsertEntity grew the model in place: the test needs a reallocation")
	}

	all, err := eng.TopKNoIndex(DirTail, u2, likes, g.NumEntities())
	if err != nil {
		t.Fatal(err)
	}
	rank := -1
	for i, pr := range all.Predictions {
		if pr.Entity == nm {
			rank = i
			if want := eng.m.Dissimilarity(u2, likes, nm); pr.Dist != want {
				t.Fatalf("the scan puts the new entity at %v, the model at %v", pr.Dist, want)
			}
		}
	}
	if rank < 0 {
		t.Fatal("the scan does not see the new entity")
	}
	k := max(10, rank+1)
	got, err := eng.TopK(DirTail, u2, likes, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Predictions) != k || got.Predictions[rank].Entity != nm {
		t.Fatalf("top-%d holds %d predictions and %v at the new entity's rank %d", k, len(got.Predictions), got.Predictions[min(rank, len(got.Predictions)-1)], rank)
	}
	for i, pr := range got.Predictions {
		if want := all.Predictions[i]; pr.Entity != want.Entity || pr.Dist != want.Dist {
			t.Fatalf("prediction %d is (%d, %v), the scan's (%d, %v)", i, pr.Entity, pr.Dist, want.Entity, want.Dist)
		}
	}

	fresh, err := NewEngine(g, eng.m, Crack, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []AggQuery{{Kind: Avg, Attr: "year"}, {Kind: Count}, {Kind: Sum, Attr: "year", MaxAccess: 20}} {
		a, err := eng.Aggregate(DirTail, u2, likes, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.Aggregate(DirTail, u2, likes, q)
		if err != nil {
			t.Fatal(err)
		}
		if a.BallSize == 0 || a.Value != b.Value || a.Accessed != b.Accessed || a.BallSize != b.BallSize || a.SumVi2 != b.SumVi2 {
			t.Fatalf("%v after the insert: %+v, a fresh engine %+v", q.Kind, a, b)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// 50k x 50 rows are 20 MB; an engine over them holds S2 (1.2 MB), the
	// roots' sort orders and the pages of what a few queries cracked.
	// One cloud: each query examines and cracks most of the index, so a
	// per-point copy of S1 would show.
	big, m := rerankModel(1)
	n := big.NumEntities()
	rng := rand.New(rand.NewSource(2))
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	bigEng, err := NewEngine(big, m, Crack, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := bigEng.TopK(DirTail, kg.EntityID(rng.Intn(n)), 0, 10); err != nil {
			t.Fatal(err)
		}
	}
	bigEng.ResetCache()
	grown := int64(heap() - before)
	runtime.KeepAlive(bigEng)
	if model := int64(len(m.Entities) * 8); grown >= model/2 {
		t.Fatalf("an engine over a %d-byte model grew the heap by %d bytes: a second copy of S1?", model, grown)
	}
	t.Logf("engine over a %d MB model: +%.1f MB", len(m.Entities)*8>>20, float64(grown)/(1<<20))
}

// rerankModel is a graph of 50,000 entities with one relation and no facts,
// and a model of 50-dimensional rows, unit noise around clusters centres,
// with a zero relation vector: 20 MB of S1, large enough that a re-ranked
// row is seldom in cache. One cluster is a single shifted standard-normal
// cloud, over which a top-10 examines most of the points; a thousand keep
// the examined set to a few hundred, as a converged re-rank on trained
// embeddings has.
func rerankModel(clusters int) (*kg.Graph, *embedding.Model) {
	return syntheticGraph(rand.New(rand.NewSource(1)), 50_000, 50, clusters, 1, 0, embedding.L2)
}

// BenchmarkTopKConverged times uncached top-10 tail queries over
// rerankModel on an index the same queries have already converged: the walk
// and the S1 re-rank, with no cracking, cache or Do. examined/op is the
// re-rank's work per query and ns/examined the query's time per examined
// point.
func BenchmarkTopKConverged(b *testing.B) {
	g, m := rerankModel(1000)
	eng, err := NewEngine(g, m, Crack, DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	ents := make([]kg.EntityID, 256)
	for i := range ents {
		ents[i] = kg.EntityID(rng.Intn(g.NumEntities()))
	}
	for pass := 0; pass < 2; pass++ {
		for _, ent := range ents {
			if _, err := eng.TopK(DirTail, ent, 0, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
	examined := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := eng.TopK(DirTail, ents[i%len(ents)], 0, 10)
		if err != nil {
			b.Fatal(err)
		}
		examined += res.Examined
	}
	b.ReportMetric(float64(examined)/float64(b.N), "examined/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(examined), "ns/examined")
}

// TestTopKCancellation: a top-k looks at its context every 256 visits of
// its walk; a cancelled or expired one gives up with every lock released, a
// trace finished under that status, and no crack. A follower coalesced onto
// a leader that gave up answers for itself.
func TestTopKCancellation(t *testing.T) {
	p := defaultTestParams()
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	eng.traces.SetHeadRate(0) // keep only what the status retains
	// k = every entity keeps the walk unbounded: it visits them all.
	req := Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: g.NumEntities(), Trace: true}
	if g.NumEntities() < 300 {
		t.Fatalf("%d entities: the walk never reaches its first look at the context", g.NumEntities())
	}

	for name, c := range map[string]struct {
		err    error
		status string
	}{
		"cancelled": {context.Canceled, obs.TraceCanceled},
		"expired":   {context.DeadlineExceeded, obs.TraceDeadline},
	} {
		// n = 2: Do's own check passes and the walk's first look fails.
		ctx := &flakyCtx{Context: context.Background(), n: 2, err: c.err}
		resp := eng.Do(ctx, req)
		if !errors.Is(resp.Err, c.err) || resp.TopK != nil {
			t.Fatalf("%s top-k returned (%v, %v)", name, resp.TopK, resp.Err)
		}
		if ctx.calls != 2 {
			t.Fatalf("%s: context consulted %d times", name, ctx.calls)
		}
		if resp.Trace == nil || resp.Trace.Wall <= 0 {
			t.Fatalf("%s: trace not finished", name)
		}
		recs := eng.traces.Find(resp.Trace.TraceID())
		if len(recs) != 1 || recs[0].Status != c.status {
			t.Fatalf("%s: trace store holds %+v, want one %v record", name, recs, c.status)
		}
	}
	if st := eng.IndexStats(); st.BinarySplits != 0 {
		t.Fatalf("cancelled top-k queries cracked the index: %d splits", st.BinarySplits)
	}
	if slotOf(eng, topkKey{dir: DirTail, ent: u, rel: likes, k: req.K, eps: eng.params.Eps}) != nil {
		t.Fatal("a cancelled top-k was cached")
	}

	// Every lock is free again: a writer gets in.
	if err := eng.AddFact(u, likes, g.EntitiesOfType("movie")[0]); err != nil {
		t.Fatal(err)
	}

	// A follower whose leader gave up: park a pending slot and, once the
	// follower has coalesced onto it, fail it with the leader's own
	// cancellation; the follower's own context is fine.
	key := topkKey{dir: DirTail, ent: u, rel: likes, k: req.K, eps: eng.params.Eps}
	c := parkSlot(t, eng, key, obs.TraceID{})
	var resp Response
	followParked(t, eng, c, nil, context.Canceled, func() { resp = eng.Do(context.Background(), req) })
	if resp.Err != nil || len(resp.TopK.Predictions) == 0 || !resp.Trace.Coalesced {
		t.Fatalf("follower of a cancelled leader returned (%+v, %v)", resp.TopK, resp.Err)
	}

	// The nil context Do accepts is consulted nowhere, and the answer is the
	// scan's: k covers everything, so nothing can be missing.
	var none context.Context
	resp = eng.Do(none, req)
	want, err := eng.TopKNoIndex(DirTail, u, likes, req.K)
	if err != nil || resp.Err != nil {
		t.Fatal(err, resp.Err)
	}
	if len(resp.TopK.Predictions) != len(want.Predictions) {
		t.Fatalf("after the cancelled queries a top-k returns %d predictions, the scan %d", len(resp.TopK.Predictions), len(want.Predictions))
	}
	for i, pr := range resp.TopK.Predictions {
		if pr.Entity != want.Predictions[i].Entity || math.Float64bits(pr.Dist) != math.Float64bits(want.Predictions[i].Dist) {
			t.Fatalf("prediction %d is (%d, %v), the scan's (%d, %v)", i, pr.Entity, pr.Dist, want.Predictions[i].Entity, want.Predictions[i].Dist)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// A look that fails with points still buffered. Over 2,000 entities,
	// with k = 1 and an eps that bounds nothing, the walk visits every
	// point, the top-k is full from the first eligible one on, and the
	// re-ranker flushes every reRankBatch points after that: the second
	// look, at visit 512, finds a part-filled batch.
	const n = 2000
	sg, sm := syntheticGraph(rand.New(rand.NewSource(1)), n, 16, 1, 1, 0.5, embedding.L2)
	seng, err := NewEngine(sg, sm, Crack, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sreq := Request{Kind: KindTopK, Dir: DirTail, Entity: 0, Rel: 0, K: 1, Eps: 1e6}
	q2 := seng.tf.Apply(seng.m.TailQueryPoint(sreq.Entity, sreq.Rel))
	nearest := int32(0)
	for i := int32(1); i < n; i++ {
		if seng.ps.SqDistTo(i, q2) < seng.ps.SqDistTo(nearest, q2) {
			nearest = i
		}
	}
	filled := 1 // the visit that fills the top-k: the query entity itself is skipped
	if kg.EntityID(nearest) == sreq.Entity {
		filled = 2
	}
	if buffered := (511 - filled) % reRankBatch; buffered == 0 {
		t.Fatalf("the top-k fills at visit %d: the batch is empty at visit 512", filled)
	}
	ctx := &flakyCtx{Context: context.Background(), n: 3, err: context.DeadlineExceeded}
	resp = seng.Do(ctx, sreq)
	if !errors.Is(resp.Err, context.DeadlineExceeded) || resp.TopK != nil {
		t.Fatalf("top-k expiring at its second look returned (%v, %v)", resp.TopK, resp.Err)
	}
	if ctx.calls != 3 {
		t.Fatalf("top-k expiring at its second look consulted its context %d times", ctx.calls)
	}
	if st := seng.IndexStats(); st.BinarySplits != 0 {
		t.Fatalf("a top-k that expired with a part-filled batch cracked the index: %d splits", st.BinarySplits)
	}
	if slotOf(seng, topkKey{dir: sreq.Dir, ent: sreq.Entity, rel: sreq.Rel, k: sreq.K, eps: sreq.Eps}) != nil {
		t.Fatal("a top-k that expired with a part-filled batch was cached")
	}
	// Run to the end, the same query looks once per 256 visits, not once
	// per flush.
	ctx = &flakyCtx{Context: context.Background(), n: math.MaxInt}
	resp = seng.Do(ctx, sreq)
	if resp.Err != nil || resp.TopK.Examined != n-1 {
		t.Fatalf("the whole walk returned (%+v, %v)", resp.TopK, resp.Err)
	}
	if want := 1 + n/256; ctx.calls != want {
		t.Fatalf("a %d-visit walk consulted its context %d times, want %d", n, ctx.calls, want)
	}
}
