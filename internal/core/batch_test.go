package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/obs"
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
		res, err := eng.TopK(DirTail, r.Entity, r.Rel, r.K)
		if err != nil {
			t.Fatalf("serial TopK: %v", err)
		}
		want[i] = res
	}
	got := eng.DoBatchWorkers(context.Background(), reqs, 0)
	if len(got) != len(reqs) {
		t.Fatalf("DoBatchWorkers returned %d responses for %d requests", len(got), len(reqs))
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
// a duplicate waits on the leader's pending slot or hits it finished, and
// either way gets the same result value.
func TestDoBatchCoalescesDuplicates(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")

	// Every (user, k) is its own batch of 32 duplicates, so a duplicate
	// arriving just as the leader finishes its slot is met over and over.
	reqs := make([]Request, 32)
	for _, u := range users {
		for k := 1; k <= 10; k++ {
			for i := range reqs {
				reqs[i] = Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: k}
			}
			resps := eng.DoBatchWorkers(context.Background(), reqs, 0)
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
	// Every call is one of an execution, a hit or a follower, to the unit.
	m, calls := eng.Metrics(), uint64(10*len(users)*len(reqs))
	if got := m.TopKQueries + m.Cache.Hits + m.Coalesced; got != calls {
		t.Fatalf("%d executions + %d hits + %d coalesced = %d, want the %d calls",
			m.TopKQueries, m.Cache.Hits, m.Coalesced, got, calls)
	}
}

// parkSlot installs a pending slot for key, as a leader does before it
// executes, and returns it for the test to finish.
func parkSlot(t *testing.T, eng *Engine, key topkKey, leader obs.TraceID) *slot {
	t.Helper()
	_, s, lead := eng.cache.acquire(key, leader)
	if !lead {
		t.Fatal("the key already has a slot")
	}
	return s
}

// followParked runs call, which must coalesce onto the parked slot c, and
// finishes c with (res, err) once call has.
func followParked(t *testing.T, eng *Engine, c *slot, res *TopKResult, err error, call func()) {
	t.Helper()
	before := eng.met.sfCoalesced.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		call()
	}()
	for eng.met.sfCoalesced.Value() == before {
		select {
		case <-done:
			t.Fatal("the call returned without coalescing onto the parked slot")
		case <-time.After(time.Millisecond):
		}
	}
	eng.cache.finish(c, res, walkReach{}, err)
	<-done
}

// slotOf returns the cache's slot for key, or nil.
func slotOf(eng *Engine, key topkKey) *slot {
	eng.cache.mu.Lock()
	defer eng.cache.mu.Unlock()
	return eng.cache.m[key]
}

// staleSlotWrites are the writes that must drop the slot of (DirTail,
// user, likes): a fact of that key, and a new entity placed on the key's
// query point, inside the reach of any walk from it.
func staleSlotWrites(user kg.EntityID, likes kg.RelationID, movie kg.EntityID) map[string]func(*Engine) error {
	return map[string]func(*Engine) error{
		"AddFact": func(eng *Engine) error { return eng.AddFact(user, likes, movie) },
		"InsertEntity": func(eng *Engine) error {
			_, err := eng.InsertEntity("stale-probe", "movie", []Fact{{Rel: likes, Other: user}}, nil)
			return err
		},
	}
}

// TestStaleFinishedSlotReplaced: an answer its leader finished before a
// write that can change it is never returned to a request issued after the
// write returned.
func TestStaleFinishedSlotReplaced(t *testing.T) {
	g0, _ := trainMovie(t, kggen.TinyMovieConfig())
	likes, _ := g0.RelationByName("likes")
	users, movies := g0.EntitiesOfType("user"), g0.EntitiesOfType("movie")
	for name, write := range staleSlotWrites(users[0], likes, movies[0]) {
		t.Run(name, func(t *testing.T) {
			eng, _ := testEngine(t, Crack, defaultTestParams())
			req := Request{Kind: KindTopK, Dir: DirTail, Entity: users[0], Rel: likes, K: 5}
			key := topkKey{dir: req.Dir, ent: req.Entity, rel: req.Rel, k: req.K, eps: eng.params.Eps}

			// The stale answer carries the key's true reach, so the insert
			// is dropped by the reach rule, not for want of one.
			_, w, err := eng.topKQuery(nil, req.Dir, req.Entity, req.Rel, req.K, key.eps, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !w.holds(eng.tf.Apply(eng.m.TailQueryPoint(users[0], likes))) {
				t.Fatal("the walk's reach does not hold its own query point")
			}
			stale := &TopKResult{}
			eng.cache.finish(parkSlot(t, eng, key, obs.TraceID{}), stale, w, nil)
			if resp := eng.Do(context.Background(), req); resp.TopK != stale {
				t.Fatalf("before the write the finished slot was not a hit: %+v", resp)
			}
			if err := write(eng); err != nil {
				t.Fatal(err)
			}
			resp := eng.Do(context.Background(), req)
			if resp.Err != nil || resp.TopK == stale || len(resp.TopK.Predictions) != req.K {
				t.Fatalf("after the write: (%+v, %v), want a fresh answer", resp.TopK, resp.Err)
			}
			if s := slotOf(eng, key); s == nil || s.res != resp.TopK {
				t.Fatal("the fresh answer did not replace the stale slot")
			}
		})
	}
}

// TestStalePendingSlotReplaced: a call still in flight when a write that
// can change its answer returns is not shared with a request issued after
// the write, however its leader finishes.
func TestStalePendingSlotReplaced(t *testing.T) {
	g0, _ := trainMovie(t, kggen.TinyMovieConfig())
	likes, _ := g0.RelationByName("likes")
	users, movies := g0.EntitiesOfType("user"), g0.EntitiesOfType("movie")
	for name, write := range staleSlotWrites(users[0], likes, movies[0]) {
		t.Run(name, func(t *testing.T) {
			eng, _ := testEngine(t, Crack, defaultTestParams())
			req := Request{Kind: KindTopK, Dir: DirTail, Entity: users[0], Rel: likes, K: 5}
			key := topkKey{dir: req.Dir, ent: req.Entity, rel: req.Rel, k: req.K, eps: eng.params.Eps}

			c := parkSlot(t, eng, key, obs.TraceID{})
			if err := write(eng); err != nil {
				t.Fatal(err)
			}
			done := make(chan Response)
			go func() { done <- eng.Do(context.Background(), req) }()
			// Finish the parked leader once the request has either replaced
			// its slot or coalesced onto it.
			for slotOf(eng, key) == c && eng.Metrics().Coalesced == 0 {
				time.Sleep(time.Millisecond)
			}
			stale := &TopKResult{}
			eng.cache.finish(c, stale, walkReach{sq: math.Inf(1)}, nil)
			resp := <-done
			if resp.Err != nil || resp.TopK == stale || len(resp.TopK.Predictions) != req.K {
				t.Fatalf("after the write: (%+v, %v), want a fresh answer", resp.TopK, resp.Err)
			}
			if s := slotOf(eng, key); s == nil || s == c || s.res != resp.TopK {
				t.Fatal("the stale leader's answer was left in the cache")
			}
		})
	}
}

// TestUnrelatedWriteKeepsSlot: a write that cannot change a cached answer
// leaves it a hit — a fact of another (entity, relation), and a new entity
// beyond the reach of the answer's walk.
func TestUnrelatedWriteKeepsSlot(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users, movies := g.EntitiesOfType("user"), g.EntitiesOfType("movie")
	req := Request{Kind: KindTopK, Dir: DirTail, Entity: users[0], Rel: likes, K: 5}
	key := topkKey{dir: req.Dir, ent: req.Entity, rel: req.Rel, k: req.K, eps: eng.params.Eps}
	r1 := eng.Do(context.Background(), req)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	reach := slotOf(eng, key).reach

	// A new head of (?, likes, m) sits on m's head query point; take the
	// first movie whose point lies beyond the slot's reach.
	var far kg.EntityID = -1
	for _, m := range movies {
		if !reach.holds(eng.tf.Apply(eng.m.HeadQueryPoint(m, likes))) {
			far = m
			break
		}
	}
	if far < 0 {
		t.Fatal("no movie's head query point lies beyond the slot's reach")
	}
	gen := eng.Generation()
	if err := eng.AddFact(users[1], likes, movies[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.InsertEntity("far-probe", "user", []Fact{{Rel: likes, Other: far, NewIsHead: true}}, nil); err != nil {
		t.Fatal(err)
	}
	if eng.Generation() != gen+2 {
		t.Fatalf("generation %d after two writes from %d", eng.Generation(), gen)
	}
	if r2 := eng.Do(context.Background(), req); r2.Err != nil || r2.TopK != r1.TopK {
		t.Fatalf("the cached answer did not survive writes that cannot change it (err %v)", r2.Err)
	}
	fresh, _, err := eng.topKQuery(nil, req.Dir, req.Entity, req.Rel, req.K, key.eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, r1.TopK) {
		t.Fatalf("the kept answer %+v differs from a fresh one %+v", r1.TopK, fresh)
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

// TestSetAttrKeepsCachedTopK: a top-k answer reads no attribute, so SetAttr
// leaves the result cache as it is, while an aggregate, which is never
// cached, sees the new value at once.
func TestSetAttrKeepsCachedTopK(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	topk := Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 3}
	agg := Request{Kind: KindAggregate, Dir: DirTail, Entity: u, Rel: likes,
		Agg: AggQuery{Kind: Max, Attr: "year", MaxAccess: 5}}

	r1 := eng.Do(context.Background(), topk)
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if a := eng.Do(context.Background(), agg); a.Err != nil || a.Agg.Value > 2100 {
		t.Fatalf("MAX year before any update: %+v, %v", a.Agg, a.Err)
	}
	gen := eng.Generation()
	const year = 1e6
	for _, m := range g.EntitiesOfType("movie") {
		if err := eng.SetAttr("year", m, year); err != nil {
			t.Fatal(err)
		}
	}
	if eng.Generation() != gen {
		t.Fatal("SetAttr bumped the generation")
	}
	if r2 := eng.Do(context.Background(), topk); r2.Err != nil || r2.TopK != r1.TopK {
		t.Fatalf("the cached top-k answer did not survive SetAttr (err %v)", r2.Err)
	}
	a := eng.Do(context.Background(), agg)
	if a.Err != nil {
		t.Fatal(a.Err)
	}
	if math.Abs(a.Agg.Value-year) > 1e-9*year {
		t.Fatalf("MAX year after every movie's was set to %v: %v", year, a.Agg.Value)
	}
}

func TestDoBatchContextCancellation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	reqs, _ := batchWorkload(g, 16)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, resp := range eng.DoBatchWorkers(ctx, reqs, 0) {
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
	resp = eng.Do(context.Background(), Request{Kind: KindAggregate, Entity: 0, Rel: likes,
		Agg: AggQuery{Kind: Avg}})
	if !errors.Is(resp.Err, ErrUnknownAttribute) {
		t.Fatalf("aggregate without an attribute: got %v, want ErrUnknownAttribute", resp.Err)
	}
	resp = eng.Do(context.Background(), Request{Kind: QueryKind(99)})
	if resp.Err == nil {
		t.Fatal("unknown query kind accepted")
	}
}
