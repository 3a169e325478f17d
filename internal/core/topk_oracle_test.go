package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
)

// syntheticGraph returns a graph of n entities ("e0", "e1", ...) of one
// type and rels relations, with no facts, and a model under norm. Its
// entity rows are standard normal around one of clusters centres, which are
// normal with standard deviation 8: clustered, as trained embeddings are.
// Its relation rows are relScale times standard normal (0 puts every query
// point on its entity). Every draw comes from rng.
func syntheticGraph(rng *rand.Rand, n, dim, clusters, rels int, relScale float64, norm embedding.Norm) (*kg.Graph, *embedding.Model) {
	g := kg.NewGraph()
	for i := 0; i < n; i++ {
		g.AddEntity("e"+strconv.Itoa(i), "thing")
	}
	for r := 0; r < rels; r++ {
		g.AddRelation("r" + strconv.Itoa(r))
	}
	m := &embedding.Model{Dim: dim, Entities: make([]float64, n*dim), Rels: make([]float64, rels*dim), NormUsed: norm}
	centers := make([]float64, clusters*dim)
	for i := range centers {
		centers[i] = 8 * rng.NormFloat64()
	}
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)*dim:][:dim]
		for j, v := range c {
			m.Entities[i*dim+j] = v + rng.NormFloat64()
		}
	}
	for i := range m.Rels {
		m.Rels[i] = relScale * rng.NormFloat64()
	}
	return g, m
}

// topKOracle is Algorithm 3 over a sorted array: every indexed point in
// ascending (S2 distance, id) order, each examined on its S1 row until, once
// k points are held, one lies beyond the (1+eps)-expanded kth distance. It
// shares nothing with findTopK's walk and re-ranker but the bounded kernel,
// and it reports the answer, the examined count and the pruned count that
// findTopK must reproduce whatever the index looks like.
func (e *Engine) topKOracle(dir Dir, ent kg.EntityID, rel kg.RelationID, k int, eps float64) (held []Prediction, examined, pruned int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q1, known := e.m.TailQueryPoint(ent, rel), e.g.Tails(ent, rel)
	if dir == DirHead {
		q1, known = e.m.HeadQueryPoint(ent, rel), e.g.Heads(ent, rel)
	}
	skip := map[kg.EntityID]bool{ent: true}
	for _, id := range known {
		skip[id] = true
	}
	q2 := e.tf.Apply(q1)
	type point struct {
		d2 float64
		id int32
	}
	order := make([]point, e.ps.N())
	for i := range order {
		order[i] = point{e.ps.SqDistTo(int32(i), q2), int32(i)}
	}
	slices.SortFunc(order, func(a, b point) int {
		if c := cmp.Compare(a.d2, b.d2); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	for _, p := range order {
		if len(held) == k {
			r := held[k-1].Dist * (1 + eps)
			if p.d2 > r*r {
				break
			}
		}
		id := kg.EntityID(p.id)
		if skip[id] {
			continue
		}
		examined++
		row := e.m.EntityVec(id)
		var dist float64
		if e.m.NormUsed == embedding.L1 {
			for i, v := range q1 {
				dist += math.Abs(v - row[i])
			}
		} else {
			cutoffSq := math.Inf(1)
			if len(held) == k {
				cutoffSq = held[k-1].Dist * held[k-1].Dist
			}
			sq := sqDistBounded(q1, row, cutoffSq)
			if math.IsInf(sq, 1) {
				pruned++
				continue
			}
			dist = math.Sqrt(sq)
		}
		// Unordered until k are held, so that with k past the eligible
		// count the answer is sorted once, at the end.
		p := Prediction{Entity: id, Dist: dist}
		if len(held) < k {
			if held = append(held, p); len(held) == k {
				slices.SortFunc(held, comparePredictions)
			}
			continue
		}
		if at, _ := slices.BinarySearchFunc(held, p, comparePredictions); at < k {
			copy(held[at+1:], held[at:k-1])
			held[at] = p
		}
	}
	slices.SortFunc(held, comparePredictions)
	return held, examined, pruned
}

// comparePredictions orders predictions by (Dist, Entity), as topKSet does.
func comparePredictions(a, b Prediction) int {
	if c := cmp.Compare(a.Dist, b.Dist); c != 0 {
		return c
	}
	return cmp.Compare(a.Entity, b.Entity)
}

// checkTopKOracle runs one traced top-k and holds its predictions (entity
// and distance, to the bit), its Examined and its PrunedByBound to the
// oracle's.
func (e *Engine) checkTopKOracle(dir Dir, ent kg.EntityID, rel kg.RelationID, k int, eps float64) error {
	tr := obs.StartTrace()
	got, _, err := e.topKQuery(nil, dir, ent, rel, k, eps, tr)
	if err != nil {
		return err
	}
	want, examined, pruned := e.topKOracle(dir, ent, rel, k, eps)
	q := fmt.Sprintf("dir %d, entity %d, relation %d, k %d", dir, ent, rel, k)
	if len(got.Predictions) != len(want) {
		return fmt.Errorf("%s: %d predictions, the oracle %d", q, len(got.Predictions), len(want))
	}
	for i, p := range got.Predictions {
		if w := want[i]; p.Entity != w.Entity || math.Float64bits(p.Dist) != math.Float64bits(w.Dist) {
			return fmt.Errorf("%s: prediction %d is (%d, %v), the oracle's (%d, %v)", q, i, p.Entity, p.Dist, w.Entity, w.Dist)
		}
	}
	if got.Examined != examined || tr.Examined != examined || tr.PrunedByBound != pruned {
		return fmt.Errorf("%s: examined %d (traced %d), pruned %d; the oracle examined %d, pruned %d",
			q, got.Examined, tr.Examined, tr.PrunedByBound, examined, pruned)
	}
	return nil
}

// TestTopKMatchesAlgorithm3Oracle: over random engines — row lengths
// shorter than the re-ranker's touch offsets and not a multiple of the
// bounded kernel's 8-wide blocks, both norms, three eps, k from 1 to more
// than there are eligible entities, known edges that the skip filter must
// pass over — findTopK answers and counts exactly as the sorted-array
// oracle does: on a cold index, after a few hundred cracking queries run
// from two goroutines, and after an InsertEntity.
func TestTopKMatchesAlgorithm3Oracle(t *testing.T) {
	// A failure names its seed; to replay it alone, set both bounds to it.
	const firstSeed, lastSeed = 1, 200
	for seed := int64(firstSeed); seed <= lastSeed; seed++ {
		if err := checkAlgorithm3Seed(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// checkAlgorithm3Seed builds the random engine of one seed and runs it
// through the three phases.
func checkAlgorithm3Seed(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	n := int(200 * math.Pow(15, rng.Float64())) // 200 to 3,000, log-uniform
	dim := []int{3, 7, 16, 23, 50}[rng.Intn(5)]
	norm := []embedding.Norm{embedding.L1, embedding.L2}[rng.Intn(2)]
	eps := []float64{0.1, 0.75, 3}[rng.Intn(3)]
	const rels = 2
	// One cluster is a cloud in which every point is nearly equidistant
	// from every other, and a top-k examines most of them.
	clusters := []int{1, 16, 128}[rng.Intn(3)]
	g, m := syntheticGraph(rng, n, dim, clusters, rels, 0.5, norm)
	p := DefaultParams()
	p.Eps = eps
	eng, err := NewEngine(g, m, Crack, p)
	if err != nil {
		return err
	}
	setup := fmt.Sprintf("%d entities in %d clusters, dim %d, norm %d, eps %v", n, clusters, dim, norm, eps)

	// Eight queries, each with known edges: three among the 30 entities
	// nearest its query point in S1, where the walk meets them, and two
	// anywhere.
	type query struct {
		dir Dir
		ent kg.EntityID
		rel kg.RelationID
	}
	pool := make([]query, 8)
	for i := range pool {
		q := query{Dir(rng.Intn(2)), kg.EntityID(rng.Intn(n)), kg.RelationID(rng.Intn(rels))}
		pool[i] = q
		near, _, _ := eng.topKOracle(q.dir, q.ent, q.rel, 30, math.Inf(1))
		for j := 0; j < 5; j++ {
			other := kg.EntityID(rng.Intn(n))
			if j < 3 && len(near) > 0 {
				other = near[rng.Intn(len(near))].Entity
			}
			h, t := q.ent, other
			if q.dir == DirHead {
				h, t = other, q.ent
			}
			if err := eng.AddFact(h, q.rel, t); err != nil {
				return err
			}
		}
	}
	ks := []int{1, 10, 64, n + 1}
	k := func() int { return ks[rng.Intn(len(ks))] }
	check := func(phase string, q query, k int) error {
		if err := eng.checkTopKOracle(q.dir, q.ent, q.rel, k, eps); err != nil {
			return fmt.Errorf("%s, %s: %w", setup, phase, err)
		}
		return nil
	}

	if err := check("cold", pool[0], k()); err != nil {
		return err
	}

	// Converged: two goroutines share the engine, each cracking with 100
	// nearest-neighbour queries of its own and then checking its half of the pool.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wrng := rand.New(rand.NewSource(rng.Int63()))
		wk := []int{k(), k(), k(), k()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ent, rel := kg.EntityID(wrng.Intn(n)), kg.RelationID(wrng.Intn(rels))
				if _, _, err := eng.topKQuery(nil, Dir(wrng.Intn(2)), ent, rel, 1, 0, nil); err != nil {
					errs[w] = err
					return
				}
			}
			for i, q := range pool[w*4 : w*4+4] {
				if err := check("converged", q, wk[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}

	// Two new entities near one of the pool's query points: one a known
	// answer that the filter must skip, the other reached through the
	// second relation and examined.
	q := pool[rng.Intn(len(pool))]
	var added []query
	for r := kg.RelationID(0); r < rels; r++ {
		fact := Fact{Rel: q.rel ^ r, Other: q.ent, NewIsHead: q.dir == DirHead}
		nu, err := eng.InsertEntity("new"+strconv.Itoa(int(r)), "thing", []Fact{fact}, nil)
		if err != nil {
			return err
		}
		added = append(added, query{q.dir, nu, q.rel})
	}
	for _, q := range append(pool, added...) {
		if err := check("after InsertEntity", q, k()); err != nil {
			return err
		}
	}
	return eng.CheckInvariants()
}
