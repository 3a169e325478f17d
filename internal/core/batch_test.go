package core

import (
	"context"
	"errors"
	"testing"

	"vkgraph/internal/kg"
)

// batchWorkload builds a small mixed top-k workload over the tiny Movie
// graph's user entities.
func batchWorkload(g *kg.Graph, n int) ([]Request, kg.RelationID) {
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Kind: KindTopK, Dir: DirTail, Entity: users[i%len(users)], Rel: likes, K: 5}
	}
	return reqs, likes
}

func TestDoBatchMatchesSerial(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	reqs, _ := batchWorkload(g, 24)

	// Converge the index so batch execution order cannot change cracking.
	for _, r := range reqs {
		if resp := eng.Do(context.Background(), r); resp.Err != nil {
			t.Fatalf("warm-up: %v", resp.Err)
		}
	}

	want := make([]*TopKResult, len(reqs))
	for i, r := range reqs {
		res, err := eng.TopKTails(r.Entity, r.Rel, r.K)
		if err != nil {
			t.Fatalf("serial TopKTails: %v", err)
		}
		want[i] = res
	}
	got := eng.DoBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("DoBatch returned %d responses for %d requests", len(got), len(reqs))
	}
	for i, resp := range got {
		if resp.Err != nil {
			t.Fatalf("request %d: %v", i, resp.Err)
		}
		if len(resp.TopK.Predictions) != len(want[i].Predictions) {
			t.Fatalf("request %d: got %d predictions, want %d",
				i, len(resp.TopK.Predictions), len(want[i].Predictions))
		}
		for j, p := range resp.TopK.Predictions {
			if p.Entity != want[i].Predictions[j].Entity {
				t.Fatalf("request %d prediction %d: got entity %d, want %d",
					i, j, p.Entity, want[i].Predictions[j].Entity)
			}
		}
	}
}

// Duplicate requests in one batch must collapse to a single computation:
// the in-flight coalescing (or the cache, for stragglers) hands every
// duplicate the same result value.
func TestDoBatchCoalescesDuplicates(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")

	// Every (user, k) is its own batch of 32 duplicates, so a duplicate
	// arriving as the leader finishes — after the leader's cache put, after
	// its in-flight slot is gone — is met over and over.
	reqs := make([]Request, 32)
	for _, u := range users {
		for k := 1; k <= 10; k++ {
			for i := range reqs {
				reqs[i] = Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: k}
			}
			resps := eng.DoBatch(context.Background(), reqs)
			for i, resp := range resps {
				if resp.Err != nil {
					t.Fatalf("user %d k=%d response %d: %v", u, k, i, resp.Err)
				}
				if resp.TopK != resps[0].TopK {
					t.Fatalf("user %d k=%d: response %d did not share the coalesced result", u, k, i)
				}
			}
		}
	}
	if s, want := eng.CacheStats(), 10*len(users); s.Entries != want {
		t.Fatalf("%d cached entries after %d batches of duplicates, want %d", s.Entries, want, want)
	}
}

func TestResultCacheHitAndInvalidation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	req := Request{Kind: KindTopK, Dir: DirTail, Entity: users[0], Rel: likes, K: 3}

	r1 := eng.Do(context.Background(), req)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	r2 := eng.Do(context.Background(), req)
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if r2.TopK != r1.TopK {
		t.Fatal("repeat query was not served from the cache")
	}
	if s := eng.CacheStats(); s.Hits == 0 {
		t.Fatalf("cache reported no hits: %+v", s)
	}

	gen := eng.Generation()
	top := r1.TopK.Predictions[0].Entity
	if err := eng.AddFact(users[0], likes, top); err != nil {
		t.Fatalf("AddFact: %v", err)
	}
	if eng.Generation() == gen {
		t.Fatal("AddFact did not bump the generation")
	}
	r3 := eng.Do(context.Background(), req)
	if r3.Err != nil {
		t.Fatal(r3.Err)
	}
	if r3.TopK == r1.TopK {
		t.Fatal("stale cached answer served after AddFact")
	}
	for _, p := range r3.TopK.Predictions {
		if p.Entity == top {
			t.Fatalf("entity %d still predicted after becoming a known fact", top)
		}
	}
}

func TestDoBatchContextCancellation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	reqs, _ := batchWorkload(g, 16)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, resp := range eng.DoBatch(ctx, reqs) {
		if !errors.Is(resp.Err, context.Canceled) {
			t.Fatalf("response %d: got err %v, want context.Canceled", i, resp.Err)
		}
	}
}

func TestDoValidation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")

	resp := eng.Do(context.Background(), Request{Kind: KindTopK, Entity: 1 << 30, Rel: likes, K: 3})
	if !errors.Is(resp.Err, ErrUnknownEntity) {
		t.Fatalf("got %v, want ErrUnknownEntity", resp.Err)
	}
	resp = eng.Do(context.Background(), Request{Kind: KindTopK, Entity: 0, Rel: 1 << 30, K: 3})
	if !errors.Is(resp.Err, ErrUnknownRelation) {
		t.Fatalf("got %v, want ErrUnknownRelation", resp.Err)
	}
	resp = eng.Do(context.Background(), Request{Kind: KindAggregate, Entity: 0, Rel: likes,
		Agg: AggQuery{Kind: Avg, Attr: "no-such-attr"}})
	if !errors.Is(resp.Err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", resp.Err)
	}
	resp = eng.Do(context.Background(), Request{Kind: QueryKind(99)})
	if resp.Err == nil {
		t.Fatal("unknown query kind accepted")
	}
}
