package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
)

// TestEstimateMaxSampleHandling pins the Equation 4 estimator's empty-sample
// contract: no accessed point with a value means no estimate (ok=false), not
// a fabricated 0 — a 0 would dominate any all-negative MAX (or all-positive
// MIN) it is later combined with.
func TestEstimateMaxSampleHandling(t *testing.T) {
	if v, ok := estimateMax(nil, false); ok || v != 0 {
		t.Fatalf("empty sample: got (%v, %v), want (0, false)", v, ok)
	}
	// An all-negative sample must produce a negative MAX estimate.
	neg := []ballPoint{
		{val: -3, prob: 1},
		{val: -7, prob: 0.5},
	}
	est, ok := estimateMax(neg, false)
	if !ok {
		t.Fatal("non-empty sample reported not ok")
	}
	if est >= 0 {
		t.Fatalf("MAX of all-negative sample = %v, want < 0", est)
	}

	// Symmetrically, an all-positive sample must produce a positive MIN.
	pos := []ballPoint{
		{val: 3, prob: 1},
		{val: 7, prob: 0.5},
	}
	est, ok = estimateMax(pos, true)
	if !ok || est <= 0 {
		t.Fatalf("MIN of all-positive sample = (%v, %v), want positive", est, ok)
	}
}

// TestAggregateMaxMinNegativeValues runs the full MAX/MIN path over an
// attribute column whose values are all far below zero. The regression being
// pinned: a 0 injected anywhere along the estimate/element-bound combination
// would surface here as a MAX of 0 instead of a plausibly negative year.
func TestAggregateMaxMinNegativeValues(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	for _, m := range g.EntitiesOfType("movie") {
		if y, ok := g.Attr("year", m); ok {
			g.SetAttr("year", m, y-10000)
		}
	}
	col, ok := g.AttrColumn("year")
	if !ok {
		t.Fatal("year column missing")
	}
	eng.ps.BindAttr("year", col)

	likes, _ := g.RelationByName("likes")
	for _, u := range g.EntitiesOfType("user")[:5] {
		maxRes, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "year"})
		if err != nil {
			t.Fatalf("Max: %v", err)
		}
		minRes, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Min, Attr: "year"})
		if err != nil {
			t.Fatalf("Min: %v", err)
		}
		if maxRes.BallSize == 0 {
			continue // empty ball legitimately yields an empty result
		}
		if maxRes.Value >= 0 {
			t.Fatalf("user %d: MAX of all-negative years = %v, want < 0", u, maxRes.Value)
		}
		if minRes.Value >= 0 {
			t.Fatalf("user %d: MIN of all-negative years = %v, want < 0", u, minRes.Value)
		}
		if maxRes.Value < minRes.Value {
			t.Fatalf("user %d: MAX %v < MIN %v", u, maxRes.Value, minRes.Value)
		}
		if maxRes.Value < -8200 || maxRes.Value > -7800 {
			t.Fatalf("user %d: MAX year %v implausible for the shifted range", u, maxRes.Value)
		}
	}
}

// Regression: SetAttr never reached the index, so contour-element
// statistics cached by earlier aggregates went stale. A raised value left
// v_m at the old maximum — a Theorem 4 radius hundreds of times too small
// — and a lowered one left the MAX element bound at a value no point has.
func TestSetAttrRefreshesElementStatistics(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users, movies := g.EntitiesOfType("user")[:20], g.EntitiesOfType("movie")
	maxYear := func(u kg.EntityID) *AggResult {
		t.Helper()
		res, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "year", MaxAccess: 5})
		if err != nil {
			t.Fatal(err)
		}
		if res.BallSize <= res.Accessed {
			t.Fatalf("user %d: ball of %d with %d accessed leaves nothing to the element statistics", u, res.BallSize, res.Accessed)
		}
		return res
	}
	for _, u := range users {
		if res := maxYear(u); res.VM > 2100 {
			t.Fatalf("user %d: v_m %v before any update", u, res.VM)
		}
	}
	for _, year := range []float64{1e6, 1000} {
		for _, m := range movies {
			if err := eng.SetAttr("year", m, year); err != nil {
				t.Fatal(err)
			}
		}
		for _, u := range users {
			if res := maxYear(u); res.VM != year || math.Abs(res.Value-year) > 1e-9*year {
				t.Fatalf("user %d, every year set to %v: MAX %v, v_m %v", u, year, res.Value, res.VM)
			}
		}
	}
}

// flakyCtx reports err (context.Canceled when nil) from its nth Err call on.
type flakyCtx struct {
	context.Context
	calls, n int
	err      error
}

func (c *flakyCtx) Err() error {
	if c.calls++; c.calls < c.n {
		return nil
	}
	if c.err != nil {
		return c.err
	}
	return context.Canceled
}

// TestAggregateCancellation: a MaxAccess 0 aggregate orders its whole ball,
// so it looks at its context while it walks; a cancelled one gives up with
// every lock released, a trace finished as canceled, and no crack.
func TestAggregateCancellation(t *testing.T) {
	p := defaultTestParams()
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	eng.traces.SetHeadRate(0) // keep only what the status retains
	req := Request{Kind: KindAggregate, Dir: DirTail, Entity: u, Rel: likes, Agg: AggQuery{Kind: Avg, Attr: "year"}, Trace: true}

	// n = 2: Do's own check passes and the walk's first look (visit 256)
	// fails; n = 3: the walk of a small ball finishes and the check before
	// the unordered phase fails.
	for n, agg := range map[int]AggQuery{2: req.Agg, 3: {Kind: Avg, Attr: "year", PTau: 1}} {
		req.Agg = agg
		ctx := &flakyCtx{Context: context.Background(), n: n}
		resp := eng.Do(ctx, req)
		if !errors.Is(resp.Err, context.Canceled) || resp.Agg != nil {
			t.Fatalf("n=%d: cancelled aggregate returned (%v, %v)", n, resp.Agg, resp.Err)
		}
		if ctx.calls != n {
			t.Fatalf("n=%d: context consulted %d times", n, ctx.calls)
		}
		if resp.Trace == nil || resp.Trace.Wall <= 0 {
			t.Fatalf("n=%d: trace not finished", n)
		}
		recs := eng.traces.Find(resp.Trace.TraceID())
		if len(recs) != 1 || recs[0].Status != obs.TraceCanceled {
			t.Fatalf("n=%d: trace store holds %+v, want one canceled record", n, recs)
		}
	}
	if st := eng.IndexStats(); st.BinarySplits != 0 {
		t.Fatalf("cancelled aggregates cracked the index: %d splits", st.BinarySplits)
	}

	// Every lock is free again: a writer gets in, and the same query answers.
	if err := eng.AddFact(u, likes, g.EntitiesOfType("movie")[0]); err != nil {
		t.Fatal(err)
	}
	// The nil context Do accepts is consulted nowhere.
	req.Agg = AggQuery{Kind: Avg, Attr: "year"}
	var none context.Context
	if resp := eng.Do(none, req); resp.Err != nil || resp.Agg.BallSize == 0 {
		t.Fatalf("engine unusable after a cancelled aggregate: %+v, %v", resp.Agg, resp.Err)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentAggregatesAndSetAttr: aggregates on several goroutines race
// to fill the same elements' statistics under the index read lock while a
// writer's SetAttr clears them. Run under -race; afterwards no stale
// statistic survives: every answer equals the oracle's, which caches nothing.
func TestConcurrentAggregatesAndSetAttr(t *testing.T) {
	p := defaultTestParams()
	p.Index.LeafCap, p.Index.Fanout = 8, 3
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	users, movies := g.EntitiesOfType("user"), g.EntitiesOfType("movie")
	query := func(i int) (kg.EntityID, AggQuery) {
		kind := aggKinds[i%len(aggKinds)]
		return users[i%len(users)], AggQuery{Kind: kind, Attr: aggAttr(kind, "year"), MaxAccess: 5}
	}
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u, q := query(7*w + i)
				if _, err := eng.Aggregate(DirTail, u, likes, q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, m := range movies { // every year ends up below anything cached
			if err := eng.SetAttr("year", m, float64(1000+i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	for i := 0; i < 30; i++ {
		u, q := query(i)
		if _, err := eng.Aggregate(DirTail, u, likes, q); err != nil { // converges the region
			t.Fatal(err)
		}
		got, err := eng.Aggregate(DirTail, u, likes, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := eng.oracleAggregateQuery(DirTail, u, likes, q, eng.params.Eps)
		if err != nil {
			t.Fatal(err)
		}
		if got.BallSize != want.BallSize || got.VM != want.VM || math.Abs(got.Value-want.Value) > 1e-9*math.Abs(want.Value) {
			t.Fatalf("%v of user %d after the storm: got %+v, oracle %+v", q.Kind, u, *got, *want)
		}
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestJLInverseBias(t *testing.T) {
	// Monte-Carlo check of E[l1/l2] = E[(chi2_a/a)^(-1/2)].
	rng := rand.New(rand.NewSource(9))
	for _, alpha := range []int{2, 3, 6} {
		want := jlInverseBias(alpha)
		var sum float64
		const trials = 200000
		for i := 0; i < trials; i++ {
			var s float64
			for j := 0; j < alpha; j++ {
				v := rng.NormFloat64()
				s += v * v
			}
			sum += 1 / math.Sqrt(s/float64(alpha))
		}
		emp := sum / trials
		if math.Abs(want-emp)/want > 0.02 {
			t.Fatalf("alpha=%d: analytic %v vs empirical %v", alpha, want, emp)
		}
	}
	if got := jlInverseBias(1); got != 1 {
		t.Fatalf("alpha=1 fallback = %v, want 1", got)
	}
}
