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

// TopK answers "top-k entities most likely to complete (ent, rel, ?)" for
// dir = DirTail — query Q1 of the paper — or "(?, rel, ent)" for DirHead,
// the symmetric query searching around t - r. Edges already in E are
// excluded. Safe for concurrent use; see the Engine concurrency notes.
func (e *Engine) TopK(dir Dir, ent kg.EntityID, rel kg.RelationID, k int) (*TopKResult, error) {
	res, _, err := e.topKQuery(context.Background(), dir, ent, rel, k, e.params.Eps, nil)
	return res, err
}

// topKQuery is the body of the indexed top-k: run Algorithm 3 with the
// given query-expansion eps and complete the cracking step. The eps
// parameter lets Do apply a per-request override without touching the
// engine parameters; tr, when non-nil, collects the per-stage breakdown. A
// query whose ctx expires (a nil one, as for Do, never does) returns
// ctx.Err(). The walk's reach goes to the result cache with the answer.
func (e *Engine) topKQuery(ctx context.Context, dir Dir, ent kg.EntityID, rel kg.RelationID, k int, eps float64, tr *obs.QueryTrace) (*TopKResult, walkReach, error) {
	start := time.Now()
	q, err := e.beginQuery(dir, ent, rel, tr)
	if err != nil {
		return nil, walkReach{}, err
	}
	res, w, region, doCrack, err := e.findTopK(ctx, q, k, eps, tr)
	if err != nil {
		e.mu.RUnlock() // given up: no crack
		e.met.queryErrors.Inc()
		return nil, walkReach{}, err
	}
	e.finishQuery(region, doCrack, tr) // releases the read lock
	e.met.topkQueries.Inc()
	e.met.latTopK.Observe(time.Since(start).Seconds())
	return res, w, nil
}

// walkReach is how far a top-k walk looked: its query point q2 in S2 and
// a squared S2 distance sq. A point inserted farther than sq from q2 would
// not have been examined: the walk yields points in (S2 distance, id)
// order whatever the tree's shape, so over the grown tree it yields the
// same prefix and stops where it did, and the answer stays bit for bit the
// same. sq is the larger of the final squared radius and the squared
// distance of the last point the walk yielded. The radius alone is too
// short: it shrinks as the walk goes, so points beyond the final radius
// may have been examined. The last point alone is too short when the walk
// ran out of points: it would go on to a new one within the radius. sq is
// +Inf when there was no walk or the radius never became finite.
type walkReach struct {
	q2 []float64
	sq float64
}

// holds reports whether a point at S2 position p2 lies within the reach.
// A reach of +Inf holds every point, q2 nil or not.
func (w walkReach) holds(p2 []float64) bool {
	var s float64
	for j, v := range w.q2 {
		d := p2[j] - v
		s += d * d
	}
	return s <= w.sq
}

// findTopK implements FindTopKEntities (Algorithm 3):
//
//  1. q <- the query point in S2;
//  2. seed the top-k with the first k eligible points of the best-first
//     walk — the exact k nearest in S2 — and set the radius
//     r_q = r_k* (1+eps), with r_k* measured in S1;
//  3. keep examining the walk's points (they arrive in increasing S2
//     distance), refining the top-k and shrinking r_q as better S1
//     distances arrive, and stop at the first point beyond r_q. The points
//     are examined in batches by reRanker, which stops on the same point;
//  4. hand the final query region back to the caller, which cracks the
//     index around it (under the index write lock) if still needed.
//
// The walk visits points in ascending (S2 distance, id) order — a total
// order independent of the tree structure — so the predictions do not
// depend on how far the index has been cracked.
//
// findTopK runs entirely under the engine read lock (held by the caller),
// takes the index read lock for the walk, and never mutates the engine; it
// returns the walk's reach, the final query region and whether the caller
// should complete the cracking step. The walk looks at ctx every 256
// visits and gives up with ctx.Err() once it has expired.
func (e *Engine) findTopK(ctx context.Context, q query, k int, eps float64, tr *obs.QueryTrace) (*TopKResult, walkReach, rtree.Rect, bool, error) {
	res := &TopKResult{Predictions: []Prediction{}}
	if k <= 0 || e.ps.N() == 0 {
		res.RecallBound = 1
		return res, walkReach{sq: math.Inf(1)}, rtree.Rect{}, false, nil
	}
	q2 := e.tf.Apply(q.q1)
	tr.Step(obs.StageTransform)

	// Lines 2-8 as one merged pass: unbounded while the top-k is filling
	// (the first k eligible points are the exact seeds), then bounded by the
	// shrinking (1+eps)-expanded kth distance. The walk hands its points to
	// the re-ranker, which examines them a batch at a time.
	rr := reRanker{e: e, q: q, top: newTopKSet(k, e.ps.N()), k: k, eps: eps,
		l1: e.m.NormUsed == embedding.L1, b: math.Inf(1)}
	visits := 0
	var cancelled error
	e.idx.mu.RLock()
	e.idx.tree.WalkWithin(q2, func() float64 { return rr.b }, func(id32 int32, sqDist float64) bool {
		if visits++; visits&255 == 0 && ctx != nil {
			if cancelled = ctx.Err(); cancelled != nil {
				return false
			}
		}
		return rr.add(id32, sqDist)
	})
	if cancelled == nil {
		rr.flush()
	}
	e.idx.mu.RUnlock()
	tr.Step(obs.StageSearch)
	if cancelled != nil {
		return nil, walkReach{}, rtree.Rect{}, false, cancelled
	}
	w := walkReach{q2: q2, sq: max(rr.b, rr.last)}
	top := rr.top
	res.Examined = rr.examined
	if top.len() == 0 {
		res.RecallBound = 1
		e.met.examined.Add(uint64(res.Examined))
		return res, w, rtree.Rect{}, false, nil
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
	e.met.pruned.Add(uint64(rr.pruned))
	if tr != nil {
		tr.Examined = res.Examined
		tr.PrunedByBound = rr.pruned
	}
	return res, w, finalQ, true, nil
}

// reRankBatch is how many walk points the re-ranker holds before it
// examines them: enough independent S1 row loads in flight to hide most of
// their latency.
const reRankBatch = 16

// reRanker is Algorithm 3's line 5 loop: it examines the walk's points on
// their S1 rows, in the walk's ascending (S2 distance, id) order, and keeps
// the squared radius b the walk prunes with.
//
// Once the top-k holds k points, add only buffers a point, and flush
// examines the batch: pass one loads a few floats of every buffered row so
// their cache misses overlap, and pass two is the sequential loop, which
// stops at the first point beyond the radius. The walk meanwhile prunes
// with the radius as of the last flush. That bound is stale by at most one
// batch, and since the radius only shrinks, it is never below the current
// one: the walk yields the same points in the same order, plus at most a
// batch more, and pass two stops on the point the exact radius stops on.
// The answer, Examined and PrunedByBound are those of re-ranking every
// point as it arrives. While the top-k is still filling, every point is
// flushed at once, so the radius turns finite on the same visit as it
// would unbatched.
type reRanker struct {
	e   *Engine
	q   query
	top *topKSet
	k   int
	eps float64
	l1  bool
	b   float64 // squared radius as of the last examined point

	last             float64 // squared S2 distance of the walk's last point
	examined, pruned int

	n   int
	buf [reRankBatch]candidate
}

// candidate is one buffered walk point.
type candidate struct {
	id    int32
	sqD   float64 // squared S2 distance, the walk's key
	touch float64 // pass one's sum of the row floats it loaded
}

// add buffers the walk's next point and reports whether the walk goes on.
func (r *reRanker) add(id int32, sqD float64) bool {
	r.last = sqD
	r.buf[r.n] = candidate{id: id, sqD: sqD}
	r.n++
	if r.n < reRankBatch && r.top.len() >= r.k {
		return true
	}
	return r.flush()
}

// flush examines the buffered points in order and empties the buffer. It
// reports false once a point lies beyond the radius: that point and every
// later one are out, and so is the rest of the walk.
func (r *reRanker) flush() bool {
	batch := r.buf[:r.n]
	r.n = 0
	// Pass one: floats 0, 8 and 16 of each row — three of a 50-dimensional
	// row's seven cache lines — with no branch on the data, so the misses
	// are in flight together. Each sum goes to its candidate's slot in the
	// query's own buffer, which keeps the loads live without writing
	// anything another query reads.
	rows, dim := r.e.m.Entities, r.e.m.Dim
	o1, o2 := min(8, dim-1), min(16, dim-1)
	for i := range batch {
		base := int(batch[i].id) * dim
		batch[i].touch = rows[base] + rows[base+o1] + rows[base+o2]
	}
	// Pass two: the sequential loop.
	for i := range batch {
		if batch[i].sqD > r.b {
			return false
		}
		id := kg.EntityID(batch[i].id)
		if r.q.skips(id) {
			continue
		}
		r.examined++
		if r.l1 {
			r.top.offer(Prediction{Entity: id, Dist: r.e.s1Dist(r.q.q1, id)})
		} else {
			// Exact distances are only needed for candidates that can
			// enter the current top-k; the bounded computation aborts
			// early for the rest.
			cutoffSq := math.Inf(1)
			if r.top.len() >= r.k {
				kd := r.top.kth()
				cutoffSq = kd * kd
			}
			sq := sqDistBounded(r.q.q1, r.e.m.EntityVec(id), cutoffSq)
			if math.IsInf(sq, 1) {
				r.pruned++
				continue
			}
			r.top.offer(Prediction{Entity: id, Dist: math.Sqrt(sq)})
		}
		if r.top.len() >= r.k {
			rad := r.top.kth() * (1 + r.eps)
			r.b = rad * rad
		}
	}
	return true
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
