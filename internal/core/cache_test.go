package core

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
)

// TestCachedAnswerMatchesFresh runs seeded interleavings of top-k calls
// over a small hot key pool, at mixed k and eps, with writes: facts aimed
// at the tail side and the head side of pool keys, new entities placed
// among the pool's answers, and attribute writes. After every step each
// answer the result cache holds must equal, bit for bit, a fresh uncached
// one: a write drops every cached answer it can change. On the tiny Movie
// graph, and on synthetic ones in both norms, the L2 ones a single cluster
// in which walks are long.
func TestCachedAnswerMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run("movie/seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			eng, g := testEngine(t, Crack, defaultTestParams())
			likes, _ := g.RelationByName("likes")
			checkCacheAgainstFresh(t, seed, eng, g.EntitiesOfType("user"), g.EntitiesOfType("movie"), []kg.RelationID{likes})
		})
		t.Run("synthetic/seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			g, m := syntheticGraph(rand.New(rand.NewSource(seed)), 400, 8, 1+int(seed%2)*7, 2, 0.5, embedding.Norm(seed%2))
			eng, err := NewEngine(g, m, Crack, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			all := make([]kg.EntityID, g.NumEntities())
			for i := range all {
				all[i] = kg.EntityID(i)
			}
			checkCacheAgainstFresh(t, seed, eng, all, all, []kg.RelationID{0, 1})
		})
	}
}

// checkCacheAgainstFresh runs one seed's interleaving: heads are the
// entities the pool's tail keys ask from, tails those its head keys ask
// from.
func checkCacheAgainstFresh(t *testing.T, seed int64, eng *Engine, heads, tails []kg.EntityID, rels []kg.RelationID) {
	rng := rand.New(rand.NewSource(seed))
	type poolKey struct {
		dir Dir
		ent kg.EntityID
		rel kg.RelationID
	}
	pool := make([]poolKey, 6)
	for i := range pool {
		q := poolKey{dir: DirTail, ent: heads[rng.Intn(len(heads))], rel: rels[rng.Intn(len(rels))]}
		if i%2 == 1 {
			q = poolKey{dir: DirHead, ent: tails[rng.Intn(len(tails))], rel: rels[rng.Intn(len(rels))]}
		}
		pool[i] = q
	}
	ks := []int{1, 3, 10}
	// A small eps leaves the final radius little above the kth distance,
	// so S2's distortion often puts examined points past it.
	epss := []float64{0, 0.05}
	ctx := context.Background()
	// answerOf is an entity among the pool key's top k, the point a write
	// aims at, or a random one when the answer is empty.
	answerOf := func(q poolKey, k int) kg.EntityID {
		res, _, err := eng.topKQuery(nil, q.dir, q.ent, q.rel, k, eng.params.Eps, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(res.Predictions) == 0 {
			return kg.EntityID(rng.Intn(eng.g.NumEntities()))
		}
		return res.Predictions[rng.Intn(len(res.Predictions))].Entity
	}

	const steps = 250
	compared, kept := 0, 0
	var cached []*slot // the finished slots after the last step
	for step := 0; step < steps; step++ {
		q := pool[rng.Intn(len(pool))]
		write := true
		switch op := rng.Intn(10); {
		case op < 5:
			write = false
			resp := eng.Do(ctx, Request{Kind: KindTopK, Dir: q.dir, Entity: q.ent, Rel: q.rel,
				K: ks[rng.Intn(len(ks))], Eps: epss[rng.Intn(len(epss))]})
			if resp.Err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, resp.Err)
			}
		case op < 7:
			// A fact that makes one of the key's answers known, on its
			// own side: the tail side of a tail key, the head side of a
			// head key.
			h, tl := q.ent, answerOf(q, ks[rng.Intn(len(ks))])
			if q.dir == DirHead {
				h, tl = tl, q.ent
			}
			if err := eng.AddFact(h, q.rel, tl); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		case op < 9:
			// A new entity, placed by its facts. Either midway between two
			// pool keys' query points, where other pool keys' walks may
			// meet it, or on an entity of a cached answer, (a, r, new) and
			// (new, r, a) putting it on a. There it can lie past the final
			// radius of the answer's walk and still be examined: the
			// radius shrank after the walk passed a.
			var facts []Fact
			if len(cached) == 0 || rng.Intn(2) == 0 {
				for _, p := range []poolKey{q, pool[rng.Intn(len(pool))]} {
					facts = append(facts, Fact{Rel: p.rel, Other: p.ent, NewIsHead: p.dir == DirHead})
				}
			} else {
				c := cached[rng.Intn(len(cached))]
				a, rel := q.ent, c.key.rel
				if n := len(c.res.Predictions); n > 0 {
					a = c.res.Predictions[rng.Intn(n)].Entity
				}
				facts = []Fact{{Rel: rel, Other: a}, {Rel: rel, Other: a, NewIsHead: true}}
			}
			if _, err := eng.InsertEntity("n"+strconv.Itoa(step), "movie", facts, nil); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		default:
			if err := eng.SetAttr("year", kg.EntityID(rng.Intn(eng.g.NumEntities())), float64(rng.Intn(100))); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
		}

		// The cached answers, most recently used first: the order is the
		// seed's, not the map's.
		cached = cached[:0]
		eng.cache.mu.Lock()
		for s := eng.cache.lru.next; s != &eng.cache.lru; s = s.next {
			if s.res != nil {
				cached = append(cached, s)
			}
		}
		eng.cache.mu.Unlock()
		for _, c := range cached {
			key := c.key
			fresh, _, err := eng.topKQuery(nil, key.dir, key.ent, key.rel, key.k, key.eps, nil)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if !reflect.DeepEqual(c.res, fresh) {
				t.Fatalf("seed %d step %d: the cached answer of %+v is\n%+v\nbut a fresh one is\n%+v", seed, step, key, c.res, fresh)
			}
			compared++
			if write {
				kept++
			}
		}
	}
	// Without kept slots the check would pass a cache that drops every
	// answer on every write.
	if kept == 0 {
		t.Fatalf("seed %d: no cached answer survived a write", seed)
	}
	t.Logf("seed %d: %d cached answers compared, %d of them after a write", seed, compared, kept)
}
