package core

import (
	"context"
	"math"
	"sort"
	"time"

	"vkgraph/internal/embedding"
	"vkgraph/internal/jl"
	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
	"vkgraph/internal/rtree"
)

// Prediction is one predicted edge of the virtual knowledge graph: an
// entity with its display name, its S1 distance to the query point (smaller
// is more plausible), and the paper's probability (the closest entity has
// probability 1, others inversely proportional to distance).
type Prediction struct {
	Entity kg.EntityID `json:"entity"`
	Name   string      `json:"name,omitempty"`
	Dist   float64     `json:"dist"`
	Prob   float64     `json:"prob"`
}

// TopKResult carries the predictions together with the data-dependent
// accuracy guarantee of Theorem 2. Results may be served from the result
// cache and are shared between callers: treat them as immutable. The JSON
// tags are the HTTP wire form.
type TopKResult struct {
	// Predictions is never nil, so an empty answer is [] on the wire.
	Predictions []Prediction `json:"predictions"`
	// RecallBound is the Theorem 2 lower bound on the probability that no
	// true top-k entity is missing from Predictions.
	RecallBound float64 `json:"recall_bound"`
	// ExpectedMisses is the Theorem 2 expected number of true top-k entities
	// missing from Predictions.
	ExpectedMisses float64 `json:"expected_misses"`
	// Examined is the number of candidate entities whose S1 distance was
	// computed — the query's dominant cost.
	Examined int `json:"examined"`
}

// TopKTails answers "top-k entities t most likely to be in relation r with
// head h, excluding edges already in E" — query Q1 of the paper. Safe for
// concurrent use; see the Engine concurrency notes.
func (e *Engine) TopKTails(h kg.EntityID, r kg.RelationID, k int) (*TopKResult, error) {
	return e.topKQuery(context.Background(), DirTail, h, r, k, e.params.Eps, nil)
}

// TopKHeads answers "top-k entities h most likely to be in relation r with
// tail t" — the symmetric query, searching around t - r. Safe for
// concurrent use.
func (e *Engine) TopKHeads(t kg.EntityID, r kg.RelationID, k int) (*TopKResult, error) {
	return e.topKQuery(context.Background(), DirHead, t, r, k, e.params.Eps, nil)
}

// topKQuery is the shared body of the top-k entry points: validate under
// the read lock, run Algorithm 3 with the given query-expansion eps, and
// complete the cracking step. The eps parameter lets Do/DoBatch apply a
// per-request override without touching the engine parameters; tr, when
// non-nil, collects the per-stage breakdown. A query whose ctx expires (a
// nil one, as for Do, never does) returns ctx.Err().
func (e *Engine) topKQuery(ctx context.Context, dir Dir, ent kg.EntityID, rel kg.RelationID, k int, eps float64, tr *obs.QueryTrace) (*TopKResult, error) {
	start := time.Now()
	if e.prepareIndex() {
		// Building the root is index construction the first query pays
		// for, not validation: its time goes to the crack span.
		tr.Carry(obs.StageCrack)
	}
	w0 := time.Now()
	e.mu.RLock()
	e.met.lockReadWait.Observe(time.Since(w0).Seconds())
	if err := e.validateEntity(ent); err != nil {
		e.mu.RUnlock()
		e.met.queryErrors.Inc()
		return nil, err
	}
	if err := e.validateRelation(rel); err != nil {
		e.mu.RUnlock()
		e.met.queryErrors.Inc()
		return nil, err
	}
	tr.Step(obs.StageValidate)
	var q1 []float64
	var skip func(kg.EntityID) bool
	if dir == DirHead {
		q1 = e.m.HeadQueryPoint(ent, rel)
		skip = e.skipHeads(ent, rel)
	} else {
		q1 = e.m.TailQueryPoint(ent, rel)
		skip = e.skipTails(ent, rel)
	}
	res, q, doCrack, err := e.findTopK(ctx, q1, k, eps, skip, tr)
	if err != nil {
		e.mu.RUnlock() // given up: no crack
		e.met.queryErrors.Inc()
		return nil, err
	}
	e.finishQuery(q, doCrack, tr) // releases the read lock
	e.met.topkQueries.Inc()
	e.met.latTopK.Observe(time.Since(start).Seconds())
	return res, nil
}

// findTopK implements FindTopKEntities (Algorithm 3):
//
//  1. q <- the query point in S2;
//  2. seed the top-k with the first k eligible points of the best-first
//     walk — the exact k nearest in S2 — and set the radius
//     r_q = r_k* (1+eps), with r_k* measured in S1;
//  3. keep examining the walk's points (they arrive in increasing S2
//     distance), refining the top-k and shrinking r_q as better S1
//     distances arrive; the radius is non-increasing, so the walk's bound
//     check stops exactly at the current radius;
//  4. hand the final query region back to the caller, which cracks the
//     index around it (under the index write lock) if still needed.
//
// The walk visits points in ascending (S2 distance, id) order — a total
// order independent of the tree structure — so the predictions do not
// depend on how far the index has been cracked.
//
// findTopK runs entirely under the engine read lock (held by the caller),
// takes the index read lock for the walk, and never mutates the engine; it
// returns the final query region and whether the caller should complete the
// cracking step. The walk looks at ctx every 256 visits and gives up with
// ctx.Err() once it has expired.
func (e *Engine) findTopK(ctx context.Context, q1 []float64, k int, eps float64, skip func(kg.EntityID) bool, tr *obs.QueryTrace) (*TopKResult, rtree.Rect, bool, error) {
	res := &TopKResult{Predictions: []Prediction{}}
	if k <= 0 || e.ps.N() == 0 {
		res.RecallBound = 1
		return res, rtree.Rect{}, false, nil
	}
	q2 := e.tf.Apply(q1)
	tr.Step(obs.StageTransform)

	// Lines 2-8 as one merged pass: unbounded while the top-k is filling
	// (the first k eligible points are the exact seeds), then bounded by the
	// shrinking (1+eps)-expanded kth distance.
	top := newTopKSet(k, e.ps.N())
	bound := func() float64 {
		if top.len() < k {
			return math.Inf(1)
		}
		r := top.kth() * (1 + eps)
		return r * r
	}
	l1 := e.m.NormUsed == embedding.L1
	pruned, visits := 0, 0
	var cancelled error
	e.idx.mu.RLock()
	e.idx.tree.WalkWithin(q2, bound, func(id32 int32, _ float64) bool {
		if visits++; visits&255 == 0 && ctx != nil {
			if cancelled = ctx.Err(); cancelled != nil {
				return false
			}
		}
		id := kg.EntityID(id32)
		if skip(id) {
			return true
		}
		res.Examined++
		if l1 {
			top.offer(Prediction{Entity: id, Dist: e.s1Dist(q1, id)})
			return true
		}
		// Exact distances are only needed for candidates that can enter
		// the current top-k; the bounded computation aborts early for the
		// rest.
		cutoffSq := math.Inf(1)
		if top.len() >= k {
			kd := top.kth()
			cutoffSq = kd * kd
		}
		sq := sqDistBounded(q1, e.m.EntityVec(id), cutoffSq)
		if !math.IsInf(sq, 1) {
			top.offer(Prediction{Entity: id, Dist: math.Sqrt(sq)})
		} else {
			pruned++
		}
		return true
	})
	e.idx.mu.RUnlock()
	tr.Step(obs.StageSearch)
	if cancelled != nil {
		return nil, rtree.Rect{}, false, cancelled
	}
	if top.len() == 0 {
		res.RecallBound = 1
		e.met.examined.Add(uint64(res.Examined))
		return res, rtree.Rect{}, false, nil
	}

	// Line 9's index update happens in the caller with this final region.
	finalQ := rtree.BallRect(q2, top.kth()*(1+eps))

	res.Predictions = top.sorted()
	e.finishPredictions(res.Predictions)
	rStar := make([]float64, len(res.Predictions))
	for i, p := range res.Predictions {
		rStar[i] = p.Dist
	}
	res.RecallBound = jl.TopKRecallLowerBound(rStar, eps, e.params.Alpha)
	res.ExpectedMisses = jl.ExpectedTopKMisses(rStar, eps, e.params.Alpha)
	e.met.examined.Add(uint64(res.Examined))
	e.met.pruned.Add(uint64(pruned))
	if tr != nil {
		tr.Examined = res.Examined
		tr.PrunedByBound = pruned
	}
	return res, finalQ, true, nil
}

// finishPredictions completes a distance-sorted prediction list: the display
// names, read under the engine read lock the caller already holds (so cached
// answers carry them and nothing downstream re-locks per prediction), and
// the paper's probability model — the closest entity has probability 1 and
// the rest decay inversely with distance.
func (e *Engine) finishPredictions(preds []Prediction) {
	if len(preds) == 0 {
		return
	}
	d1 := preds[0].Dist
	if d1 <= 0 {
		d1 = 1e-12
	}
	for i := range preds {
		preds[i].Name = e.g.Entity(preds[i].Entity).Name
		d := preds[i].Dist
		if d < d1 {
			d = d1
		}
		preds[i].Prob = d1 / d
	}
}

// topKSet maintains the k closest predictions seen so far. Callers offer
// each entity at most once (the walk yields every id exactly once:
// a point lives in one leaf), so no membership index is kept.
type topKSet struct {
	k     int
	items []Prediction // sorted ascending by (Dist, Entity)
}

// newTopKSet sizes the set for k results out of at most n candidates, with
// one spare slot so offer never regrows.
func newTopKSet(k, n int) *topKSet {
	return &topKSet{k: k, items: make([]Prediction, 0, min(k, n)+1)}
}

func (s *topKSet) len() int { return len(s.items) }

// kth returns the current kth smallest distance (the largest kept one); if
// fewer than k items are present it returns the largest so far.
func (s *topKSet) kth() float64 {
	if len(s.items) == 0 {
		return 0
	}
	return s.items[len(s.items)-1].Dist
}

func (s *topKSet) offer(p Prediction) {
	pos := sort.Search(len(s.items), func(i int) bool {
		if s.items[i].Dist != p.Dist {
			return s.items[i].Dist > p.Dist
		}
		return s.items[i].Entity > p.Entity
	})
	if pos >= s.k {
		return
	}
	s.items = append(s.items, Prediction{})
	copy(s.items[pos+1:], s.items[pos:])
	s.items[pos] = p
	if len(s.items) > s.k {
		s.items = s.items[:s.k]
	}
}

func (s *topKSet) sorted() []Prediction {
	out := make([]Prediction, len(s.items))
	copy(out, s.items)
	return out
}
