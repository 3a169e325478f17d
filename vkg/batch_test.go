package vkg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestDoBatchMixed exercises the unified request API end to end: a batch
// mixing top-k and aggregate queries in both directions must return results
// in order, each matching its serial equivalent.
func TestDoBatchMixed(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")
	r1, _ := g.EntityByName("restaurant0")

	queries := []Query{
		{Entity: amy, Relation: ratesHigh, K: 5}, // zero-value Kind/Dir: tail top-k
		{Kind: TopK, Dir: Heads, Entity: r1, Relation: ratesHigh, K: 5},
		{Kind: Aggregate, Dir: Tails, Entity: amy, Relation: ratesHigh, Agg: AggSpec{Kind: Count}},
		{Kind: Aggregate, Dir: Heads, Entity: r1, Relation: ratesHigh,
			Agg: AggSpec{Kind: Avg, Attr: "age", MaxAccess: 16}},
	}
	// Converge the index so serial and batch runs see the same tree.
	for range 2 {
		for _, q := range queries {
			if _, err := v.Do(context.Background(), q); err != nil {
				t.Fatalf("warm-up: %v", err)
			}
		}
	}

	results := v.DoBatch(context.Background(), queries)
	if len(results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(results), len(queries))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
	}

	serialTopK, err := v.TopKTails(amy, ratesHigh, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].TopK.Predictions) != len(serialTopK.Predictions) {
		t.Fatalf("batch returned %d predictions, serial %d",
			len(results[0].TopK.Predictions), len(serialTopK.Predictions))
	}
	for j, p := range results[0].TopK.Predictions {
		if p.Entity != serialTopK.Predictions[j].Entity {
			t.Fatalf("prediction %d: batch %d vs serial %d", j, p.Entity, serialTopK.Predictions[j].Entity)
		}
		if p.Name == "" {
			t.Fatalf("prediction %d missing name", j)
		}
	}
	if results[1].TopK == nil || results[2].Agg == nil || results[3].Agg == nil {
		t.Fatal("result kinds do not match query kinds")
	}
	serialAgg, err := v.AggregateTails(amy, ratesHigh, AggSpec{Kind: Count})
	if err != nil {
		t.Fatal(err)
	}
	if results[2].Agg.Value != serialAgg.Value {
		t.Fatalf("batch Count %v vs serial %v", results[2].Agg.Value, serialAgg.Value)
	}
}

// TestDoBatchPerQueryErrors: a batch with invalid members reports the
// failures in place and still answers the valid remainder.
func TestDoBatchPerQueryErrors(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")

	results := v.DoBatch(context.Background(), []Query{
		{Entity: amy, Relation: ratesHigh, K: 3},
		{Entity: 1 << 30, Relation: ratesHigh, K: 3},
		{Kind: Aggregate, Entity: amy, Relation: ratesHigh, Agg: AggSpec{Kind: Avg, Attr: "age", MaxAccess: -1}},
		{Entity: amy, Relation: ratesHigh, K: 3, Epsilon: -0.5},
	})
	if results[0].Err != nil || results[0].TopK == nil {
		t.Fatalf("valid query failed: %v", results[0].Err)
	}
	if !errors.Is(results[1].Err, ErrUnknownEntity) {
		t.Fatalf("unknown entity: got %v", results[1].Err)
	}
	if results[2].Err == nil || !strings.Contains(results[2].Err.Error(), "MaxAccess") {
		t.Fatalf("negative MaxAccess: got %v", results[2].Err)
	}
	if results[3].Err == nil || !strings.Contains(results[3].Err.Error(), "epsilon") {
		t.Fatalf("negative epsilon: got %v", results[3].Err)
	}
}

// TestBatchStress is the serving-layer acceptance test: 8 goroutines mix
// DoBatch calls with AddFact writers while another goroutine cancels a
// long batch mid-flight. Run under -race this is the proof of the batch
// executor's synchronization.
func TestBatchStress(t *testing.T) {
	g, ratesHigh, frequents := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var users, restaurants []EntityID
	for i := 0; i < 20; i++ {
		u, _ := g.EntityByName(fmt.Sprintf("user%d", i))
		users = append(users, u)
		r, _ := g.EntityByName(fmt.Sprintf("restaurant%d", i))
		restaurants = append(restaurants, r)
	}
	mkBatch := func(rng *rand.Rand, n int) []Query {
		qs := make([]Query, n)
		for i := range qs {
			u := users[rng.Intn(len(users))]
			r := restaurants[rng.Intn(len(restaurants))]
			switch rng.Intn(3) {
			case 0:
				qs[i] = Query{Entity: u, Relation: ratesHigh, K: 5}
			case 1:
				qs[i] = Query{Kind: TopK, Dir: Heads, Entity: r, Relation: ratesHigh, K: 5}
			default:
				qs[i] = Query{Kind: Aggregate, Dir: Heads, Entity: r, Relation: ratesHigh,
					Agg: AggSpec{Kind: Avg, Attr: "age", MaxAccess: 8}}
			}
		}
		return qs
	}

	const workers = 8
	iters := 12
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(4000 + w)))
			for i := 0; i < iters; i++ {
				switch rng.Intn(3) {
				case 0, 1:
					for j, res := range v.DoBatch(context.Background(), mkBatch(rng, 16)) {
						if res.Err != nil {
							errs <- fmt.Errorf("worker %d batch query %d: %w", w, j, res.Err)
							return
						}
						if res.TopK == nil && res.Agg == nil {
							errs <- fmt.Errorf("worker %d batch query %d: empty result", w, j)
							return
						}
					}
				case 2:
					u := users[rng.Intn(len(users))]
					r := restaurants[rng.Intn(len(restaurants))]
					if err := v.AddFact(u, frequents, r); err != nil {
						errs <- fmt.Errorf("worker %d AddFact: %w", w, err)
						return
					}
				}
			}
		}(w)
	}

	// One long batch cancelled mid-flight: completed answers are kept,
	// the not-yet-started remainder fails with context.Canceled, and
	// nothing panics or leaks a lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan []Result, 1)
		go func() { done <- v.DoBatch(ctx, mkBatch(rng, 512)) }()
		cancel()
		for j, res := range <-done {
			if res.Err != nil && !errors.Is(res.Err, context.Canceled) {
				errs <- fmt.Errorf("cancelled batch query %d: unexpected error %w", j, res.Err)
				return
			}
			if res.Err == nil && res.TopK == nil && res.Agg == nil {
				errs <- fmt.Errorf("cancelled batch query %d: no error and no result", j)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The engine must still be coherent and serving.
	if err := v.Engine().CheckInvariants(); err != nil {
		t.Fatalf("index invariants after batch storm: %v", err)
	}
	res, err := v.TopKTails(users[0], ratesHigh, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) != 5 {
		t.Fatalf("got %d predictions after batch storm", len(res.Predictions))
	}
}

// TestCacheInvalidation: a cached top-k answer must change after AddFact
// turns the top prediction into a known edge, in both query directions.
func TestCacheInvalidation(t *testing.T) {
	cases := []struct {
		name string
		dir  Direction
	}{
		{"tails", Tails},
		{"heads", Heads},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, ratesHigh, _ := buildTestGraph(t)
			v, err := Build(g, fastOpts()...)
			if err != nil {
				t.Fatal(err)
			}
			var ent EntityID
			if tc.dir == Tails {
				ent, _ = g.EntityByName("user0")
			} else {
				ent, _ = g.EntityByName("restaurant0")
			}
			q := Query{Kind: TopK, Dir: tc.dir, Entity: ent, Relation: ratesHigh, K: 5}

			first, err := v.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			before := v.CacheStats()
			repeat, err := v.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if after := v.CacheStats(); after.Hits <= before.Hits {
				t.Fatalf("repeat query missed the cache: %+v -> %+v", before, after)
			}
			// A hit hands out the cached answer itself, names already on it:
			// nothing between the engine and the caller copies predictions
			// or re-locks the engine to resolve names.
			if &repeat.TopK.Predictions[0] != &first.TopK.Predictions[0] {
				t.Fatal("cache hit copied the predictions instead of sharing the cached answer")
			}
			if repeat.TopK.Predictions[0].Name == "" {
				t.Fatal("cached prediction carries no name")
			}

			top := first.TopK.Predictions[0].Entity
			if tc.dir == Tails {
				err = v.AddFact(ent, ratesHigh, top)
			} else {
				err = v.AddFact(top, ratesHigh, ent)
			}
			if err != nil {
				t.Fatalf("AddFact: %v", err)
			}
			fresh, err := v.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range fresh.TopK.Predictions {
				if p.Entity == top {
					t.Fatalf("entity %d still predicted after AddFact made it a known edge", top)
				}
			}
		})
	}
}

// TestProbThresholdOverride: the per-query p_tau override must control the
// aggregation ball, both via AggSpec.ProbThreshold and via the
// Query.ProbThreshold field (which takes precedence).
func TestProbThresholdOverride(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")
	r0, _ := g.EntityByName("restaurant0")

	cases := []struct {
		name   string
		dir    Direction
		entity EntityID
		spec   AggSpec
	}{
		// Count over the restaurants amy may like.
		{"count", Tails, amy, AggSpec{Kind: Count}},
		// Average age of the users who may like restaurant0: the ball is on
		// the attribute-bearing side, so p_tau visibly gates membership.
		{"avg", Heads, r0, AggSpec{Kind: Avg, Attr: "age"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wide := tc.spec
			wide.ProbThreshold = 0.01
			narrow := tc.spec
			narrow.ProbThreshold = 0.9

			run := func(spec AggSpec) (*AggResult, error) {
				if tc.dir == Heads {
					return v.AggregateHeads(tc.entity, ratesHigh, spec)
				}
				return v.AggregateTails(tc.entity, ratesHigh, spec)
			}
			wideRes, err := run(wide)
			if err != nil {
				t.Fatal(err)
			}
			narrowRes, err := run(narrow)
			if err != nil {
				t.Fatal(err)
			}
			if narrowRes.BallSize >= wideRes.BallSize {
				t.Fatalf("p_tau=0.9 ball (%d) not smaller than p_tau=0.01 ball (%d)",
					narrowRes.BallSize, wideRes.BallSize)
			}

			// Query.ProbThreshold overrides the spec-level value.
			res, err := v.Do(context.Background(), Query{
				Kind: Aggregate, Dir: tc.dir, Entity: tc.entity, Relation: ratesHigh,
				Agg: wide, ProbThreshold: 0.9,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Agg.BallSize != narrowRes.BallSize {
				t.Fatalf("Query.ProbThreshold did not take precedence: ball %d, want %d",
					res.Agg.BallSize, narrowRes.BallSize)
			}
		})
	}
}

// TestAggSpecValidation: malformed specs are rejected at the API edge with
// a clear error instead of odd behaviour deep in the estimators.
func TestAggSpecValidation(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")

	cases := []struct {
		name    string
		spec    AggSpec
		wantSub string
	}{
		{"negative max access", AggSpec{Kind: Count, MaxAccess: -3}, "MaxAccess"},
		{"negative prob threshold", AggSpec{Kind: Count, ProbThreshold: -0.1}, "threshold"},
		{"prob threshold above one", AggSpec{Kind: Count, ProbThreshold: 1.5}, "threshold"},
		{"attr on count", AggSpec{Kind: Count, Attr: "age"}, "Count"},
		{"unknown kind", AggSpec{Kind: AggKind(42)}, "aggregate kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := v.AggregateTails(amy, ratesHigh, tc.spec)
			if err == nil {
				t.Fatalf("spec %+v accepted", tc.spec)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestSentinelErrors: errors.Is must classify failures across the vkg
// boundary.
func TestSentinelErrors(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")

	if _, err := v.TopKTails(1<<30, ratesHigh, 3); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("got %v, want ErrUnknownEntity", err)
	}
	if _, err := v.TopKHeads(amy, 1<<30, 3); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("got %v, want ErrUnknownRelation", err)
	}
	if _, err := v.AggregateTails(amy, ratesHigh, AggSpec{Kind: Avg, Attr: "no-such"}); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
	if err := v.AddFact(amy, ratesHigh, 1<<30); !errors.Is(err, ErrUnknownEntity) {
		t.Fatalf("AddFact: got %v, want ErrUnknownEntity", err)
	}
}

// TestEpsilonOverride: a larger per-query epsilon must not lower the
// Theorem 2 recall bound (it widens the examined ball).
func TestEpsilonOverride(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts(WithEpsilon(0.1))...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")

	base, err := v.Do(context.Background(), Query{Entity: amy, Relation: ratesHigh, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := v.Do(context.Background(), Query{Entity: amy, Relation: ratesHigh, K: 5, Epsilon: 2.0})
	if err != nil {
		t.Fatal(err)
	}
	if wide.TopK.RecallBound < base.TopK.RecallBound {
		t.Fatalf("eps=2.0 recall bound %v below eps=0.1 bound %v",
			wide.TopK.RecallBound, base.TopK.RecallBound)
	}
	if wide.TopK.Examined < base.TopK.Examined {
		t.Fatalf("eps=2.0 examined %d < eps=0.1 examined %d", wide.TopK.Examined, base.TopK.Examined)
	}
}

// TestDoCancelledContext: Do honours its context, so a query issued on one
// already cancelled does not run and fails with context.Canceled.
func TestDoCancelledContext(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	u, _ := g.EntityByName("user1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := v.Do(ctx, Query{Entity: u, Relation: ratesHigh, K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %+v, %v; want context.Canceled", res, err)
	}
}

// TestDoBatchWorkersCancel pins down the mid-batch cancellation contract
// the serving layer depends on: cancelling ctx makes the workers exit
// promptly without leaking goroutines, queries that already completed keep
// their results, and the not-yet-started remainder fails in place with
// context.Canceled.
func TestDoBatchWorkersCancel(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	var users []EntityID
	for i := 0; i < 80; i++ {
		u, _ := g.EntityByName(fmt.Sprintf("user%d", i))
		users = append(users, u)
	}
	// Distinct (entity, k) pairs defeat the result cache, so every query
	// does real index work and a mid-flight cancel lands between queries.
	mkBatch := func(n int) []Query {
		qs := make([]Query, n)
		for i := range qs {
			qs[i] = Query{Entity: users[i%len(users)], Relation: ratesHigh, K: 2 + i/len(users)%8}
		}
		return qs
	}

	baseline := runtime.NumGoroutine()

	// Already-cancelled context: nothing runs, everything fails in place.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre := v.DoBatchWorkers(ctx, mkBatch(64), 4)
	if len(pre) != 64 {
		t.Fatalf("pre-cancelled batch returned %d results, want 64", len(pre))
	}
	for i, res := range pre {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("pre-cancelled batch query %d: err %v, want context.Canceled", i, res.Err)
		}
	}

	// Mid-flight cancel, by construction: the context cancels itself at its
	// 100th consultation, while most of the batch has not started. Every
	// query consults it at least once before it runs, so fewer than 100
	// complete and the rest fail with context.Canceled.
	v.ResetCache()
	const cancelAt = 100
	mid := newCancelAtCtx(cancelAt)
	batch := mkBatch(512)
	results := v.DoBatchWorkers(mid, batch, 4)
	if len(results) != len(batch) {
		t.Fatalf("got %d results for a %d-query batch", len(results), len(batch))
	}
	completed, canceled := 0, 0
	for i, res := range results {
		switch {
		case res.Err == nil && res.TopK != nil:
			completed++
		case errors.Is(res.Err, context.Canceled):
			canceled++
		default:
			t.Fatalf("query %d: err %v, topk %v — want a result or context.Canceled",
				i, res.Err, res.TopK)
		}
	}
	if completed == 0 || completed >= cancelAt || canceled == 0 {
		t.Fatalf("a batch cancelled at its context's consultation %d: completed %d, canceled %d", cancelAt, completed, canceled)
	}

	// The workers must be gone: a cancelled batch cannot leak goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines %d > baseline %d long after cancelled batches returned",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the engine still serves.
	res, err := v.TopKTails(users[0], ratesHigh, 5)
	if err != nil || len(res.Predictions) != 5 {
		t.Fatalf("post-cancel query: %v, %d predictions", err, len(res.Predictions))
	}
}

// cancelAtCtx is a context that cancels itself at its nth Err call: that
// call and every later one report context.Canceled, and Done is closed.
type cancelAtCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func newCancelAtCtx(n int64) *cancelAtCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &cancelAtCtx{Context: ctx, cancel: cancel, n: n}
}

func (c *cancelAtCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}
