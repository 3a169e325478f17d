package core

import (
	"reflect"
	"sync"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
)

// TestShardedMatchesUnsharded is the sharding contract: partitioning the
// point set changes locking only, never answers. Both engines are built over
// the same graph and the same trained model, so every divergence would come
// from the index structure — and the merged best-first walk visits points in
// ascending (S2 distance, id) regardless of how the trees are cut, so top-k
// predictions must be byte-identical and the Equation 3 estimates equal.
func TestShardedMatchesUnsharded(t *testing.T) {
	g := kggen.Movie(kggen.TinyMovieConfig())
	cfg := embedding.DefaultConfig()
	cfg.Epochs = 12
	tr, err := embedding.Train(g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	newEng := func(shards int) *Engine {
		p := defaultTestParams()
		p.Shards = shards
		eng, err := NewEngine(g, tr.Model, Crack, p)
		if err != nil {
			t.Fatalf("NewEngine(shards=%d): %v", shards, err)
		}
		return eng
	}
	eng1 := newEng(1)
	eng4 := newEng(4)
	if got := eng1.NumShards(); got != 1 {
		t.Fatalf("unsharded engine has %d shards", got)
	}
	if got := eng4.NumShards(); got != 4 {
		t.Fatalf("sharded engine has %d shards, want 4", got)
	}

	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	movies := g.EntitiesOfType("movie")

	for _, u := range users[:30] {
		a, err := eng1.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatalf("unsharded TopKTails(%d): %v", u, err)
		}
		b, err := eng4.TopKTails(u, likes, 10)
		if err != nil {
			t.Fatalf("sharded TopKTails(%d): %v", u, err)
		}
		if !reflect.DeepEqual(a.Predictions, b.Predictions) {
			t.Fatalf("user %d: top-k diverges:\nunsharded %v\nsharded   %v", u, a.Predictions, b.Predictions)
		}
	}
	for _, m := range movies[:10] {
		a, err := eng1.TopKHeads(m, likes, 5)
		if err != nil {
			t.Fatalf("unsharded TopKHeads(%d): %v", m, err)
		}
		b, err := eng4.TopKHeads(m, likes, 5)
		if err != nil {
			t.Fatalf("sharded TopKHeads(%d): %v", m, err)
		}
		if !reflect.DeepEqual(a.Predictions, b.Predictions) {
			t.Fatalf("movie %d: top-k heads diverge", m)
		}
	}

	// Equation 3 estimates are functions of the ball alone, which the merged
	// walk collects in an identical order — so Value, the sample/ball sizes,
	// and the bound's SumVi2 must match exactly. (VM and the MAX/MIN element
	// bound read contour-element statistics, which legitimately depend on how
	// the trees were cut, so they are not compared bit-for-bit.)
	aggs := []AggQuery{
		{Kind: Count},
		{Kind: Sum, Attr: "year"},
		{Kind: Avg, Attr: "year"},
		{Kind: Avg, Attr: "year", MaxAccess: 5},
	}
	for _, u := range users[:10] {
		for _, q := range aggs {
			a, err := eng1.AggregateTails(u, likes, q)
			if err != nil {
				t.Fatalf("unsharded %v: %v", q.Kind, err)
			}
			b, err := eng4.AggregateTails(u, likes, q)
			if err != nil {
				t.Fatalf("sharded %v: %v", q.Kind, err)
			}
			if a.Value != b.Value || a.Accessed != b.Accessed || a.BallSize != b.BallSize || a.SumVi2 != b.SumVi2 {
				t.Fatalf("user %d %v %q: estimates diverge: unsharded %+v, sharded %+v", u, q.Kind, q.Attr, a, b)
			}
		}
		// MAX/MIN stay mutually consistent on both engines.
		for _, eng := range []*Engine{eng1, eng4} {
			maxRes, err := eng.AggregateTails(u, likes, AggQuery{Kind: Max, Attr: "year"})
			if err != nil {
				t.Fatalf("Max: %v", err)
			}
			minRes, err := eng.AggregateTails(u, likes, AggQuery{Kind: Min, Attr: "year"})
			if err != nil {
				t.Fatalf("Min: %v", err)
			}
			if maxRes.Value < minRes.Value {
				t.Fatalf("user %d: MAX %v < MIN %v", u, maxRes.Value, minRes.Value)
			}
		}
	}

	// Both engines cracked along the way; their invariants must hold and the
	// sharded one must expose per-shard lock metrics of matching arity.
	if err := eng1.CheckInvariants(); err != nil {
		t.Fatalf("unsharded invariants: %v", err)
	}
	if err := eng4.CheckInvariants(); err != nil {
		t.Fatalf("sharded invariants: %v", err)
	}
	ms := eng4.Metrics()
	if ms.Shards != 4 || len(ms.ShardWriteLockWait) != 4 || len(ms.ShardCrackLock) != 4 {
		t.Fatalf("per-shard metrics shape: Shards=%d wait=%d hold=%d",
			ms.Shards, len(ms.ShardWriteLockWait), len(ms.ShardCrackLock))
	}
	var waits uint64
	for _, h := range ms.ShardWriteLockWait {
		waits += h.Count
	}
	if waits == 0 {
		t.Fatal("no per-shard crack-lock waits recorded on a cold sharded index")
	}
}

// TestColdFirstQueriesConcurrent fires the first eight queries at a cold
// four-shard engine at once, beside an InsertEntity: one of them builds all
// four roots (their sort orders concurrently, under the engine write lock)
// while the others and the insert wait, and whichever path reaches a tree
// first must leave exactly one root in it. Run under -race in CI.
//
// Answers do not depend on the index shape, so each must equal what a
// serially driven twin engine returns — the twin that never saw the insert
// or the one that saw it first, depending on which side of the insert the
// query landed — and must agree with the no-index scan as well as the
// serial precision tests demand.
func TestColdFirstQueriesConcurrent(t *testing.T) {
	p := defaultTestParams()
	p.Shards = 4
	p.Index.LeafCap = 8 // small leaves: the tiny graph still cracks in every shard
	cold, g := testEngine(t, Crack, p)
	before, _ := testEngine(t, Crack, p)
	after, _ := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	insert := func(e *Engine) {
		facts := []Fact{{Rel: likes, Other: users[0]}, {Rel: likes, Other: users[1]}, {Rel: likes, Other: users[2]}}
		if _, err := e.InsertEntity("new-movie", "movie", facts, map[string]float64{"year": 2024}); err != nil {
			t.Errorf("InsertEntity: %v", err)
		}
	}
	insert(after)

	const n = 8
	answers := make([]*TopKResult, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := cold.TopKTails(users[i], likes, 10)
			if err != nil {
				t.Errorf("TopKTails(%d): %v", users[i], err)
				return
			}
			answers[i] = res
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		insert(cold)
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	var precision float64
	for i, got := range answers {
		b, err := before.TopKTails(users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		a, err := after.TopKTails(users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Predictions, b.Predictions) && !reflect.DeepEqual(got.Predictions, a.Predictions) {
			t.Fatalf("user %d: concurrent cold answer matches neither serial twin:\ngot    %v\nbefore %v\nafter  %v",
				users[i], got.Predictions, b.Predictions, a.Predictions)
		}
		// Now that the insert is in, the cold engine and the twin that
		// started with it agree, and both agree with the scan.
		again, err := cold.TopKTails(users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Predictions, a.Predictions) {
			t.Fatalf("user %d: settled answer diverges from the serial twin", users[i])
		}
		want, err := cold.TopKTailsNoIndex(users[i], likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		precision += precisionAtK(again.Predictions, want.Predictions)
	}
	if avg := precision / n; avg < 0.9 {
		t.Fatalf("precision@10 against the scan = %.3f, want >= 0.9", avg)
	}

	if err := cold.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// One root per shard and nothing else beyond what the cracks created:
	// a root built twice would leave an orphan record in its arena.
	st, ms := cold.IndexStats(), cold.Metrics()
	if want := 4 + int(ms.CrackNodesCreated); st.TotalNodes != want || st.ArenaNodesInUse != want {
		t.Fatalf("%d tree nodes, %d arena records, want 4 roots + %d cracked = %d",
			st.TotalNodes, st.ArenaNodesInUse, ms.CrackNodesCreated, want)
	}
	if ms.CrackSplits == 0 {
		t.Fatal("the cold queries cracked nothing; the test exercises no crack path")
	}
}

// TestShardsResolve pins the Params.Shards resolution rules: rounding down
// to a power of two, the ModeBulk single-shard override, and the cap.
func TestShardsResolve(t *testing.T) {
	cases := []struct {
		in   int
		mode IndexMode
		want int
	}{
		{1, Crack, 1},
		{2, Crack, 2},
		{3, Crack, 2},
		{4, Crack, 4},
		{7, Crack, 4},
		{1000, Crack, maxShards},
		{8, Bulk, 1},
	}
	for _, c := range cases {
		if got := resolveShards(c.in, c.mode); got != c.want {
			t.Errorf("resolveShards(%d, mode %d) = %d, want %d", c.in, c.mode, got, c.want)
		}
	}
	if got := resolveShards(0, Crack); got < 1 || got&(got-1) != 0 {
		t.Errorf("resolveShards(0) = %d, want a power of two >= 1", got)
	}
}
