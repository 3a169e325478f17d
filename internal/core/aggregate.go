package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
	"vkgraph/internal/rtree"
)

// AggKind selects the aggregate function, mirroring SQL.
type AggKind int

const (
	Count AggKind = iota
	Sum
	Avg
	Max
	Min
)

func (k AggKind) String() string {
	switch k {
	case Count:
		return "COUNT"
	case Sum:
		return "SUM"
	case Avg:
		return "AVG"
	case Max:
		return "MAX"
	case Min:
		return "MIN"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// AggQuery describes an aggregate query over the predicted edge set E':
// "the expected KIND of ATTR over the entities predicted to be in relation
// Rel with the query entity".
type AggQuery struct {
	Kind AggKind
	// Attr names the aggregated attribute column; ignored for COUNT.
	Attr string
	// MaxAccess is a, the maximum number of closest data points whose S1
	// distance and attribute are materialized; 0 means access every point
	// in the ball. A query's cost is proportional to a, not to the ball
	// size b. The paper's Figures 12-16 sweep this knob.
	MaxAccess int
	// PTau overrides the engine's probability threshold when > 0.
	PTau float64
}

// AggResult is an aggregate estimate with its Theorem 4 accuracy bound. The
// JSON tags are the HTTP wire form, which carries the estimate and its
// sample sizes only.
type AggResult struct {
	Value float64 `json:"value"`
	// Accessed (a) and BallSize (b) are the sampled and total point counts
	// of the probability ball.
	Accessed int `json:"accessed"`
	BallSize int `json:"ball_size"`
	// SumVi2 and VM parameterize the Theorem 4 martingale bound:
	// Pr[|S - mu| >= delta*mu] <= 2 exp(-2 delta^2 mu^2 / (SumVi2 + (b-a) VM^2)).
	SumVi2 float64 `json:"-"`
	VM     float64 `json:"-"`
}

// ErrorProbability returns the Theorem 4 upper bound on the probability
// that the ground truth deviates from the estimate by more than delta
// (relative).
func (r AggResult) ErrorProbability(delta float64) float64 {
	den := r.SumVi2 + float64(r.BallSize-r.Accessed)*r.VM*r.VM
	if den <= 0 {
		return 0 // everything accessed and values are all zero: exact
	}
	p := 2 * math.Exp(-2*delta*delta*r.Value*r.Value/den)
	if p > 1 {
		return 1
	}
	return p
}

// ConfidenceRadius returns the smallest relative deviation delta such that
// the Theorem 4 bound guarantees Pr[deviation > delta] <= 1-conf.
func (r AggResult) ConfidenceRadius(conf float64) float64 {
	if conf <= 0 {
		return 0
	}
	if conf >= 1 || r.Value == 0 {
		return math.Inf(1)
	}
	den := r.SumVi2 + float64(r.BallSize-r.Accessed)*r.VM*r.VM
	if den <= 0 {
		return 0
	}
	return math.Sqrt(den*math.Log(2/(1-conf))/2) / math.Abs(r.Value)
}

// Aggregate answers an aggregate query over the predicted tails of
// (ent, rel, ?) for dir = DirTail — Q2 of the paper — or over the predicted
// heads of (?, rel, ent) for DirHead ("average age of people who would like
// Restaurant 2"). Safe for concurrent use.
func (e *Engine) Aggregate(dir Dir, ent kg.EntityID, rel kg.RelationID, agg AggQuery) (*AggResult, error) {
	return e.aggregateQuery(context.Background(), dir, ent, rel, agg, e.params.Eps, nil)
}

// aggregateQuery is the body of the indexed aggregate; the eps parameter
// lets Do apply a per-request ball-expansion override and tr, when non-nil,
// collects the per-stage breakdown. A query whose ctx expires (a nil one,
// as for Do, never does) returns ctx.Err().
func (e *Engine) aggregateQuery(ctx context.Context, dir Dir, ent kg.EntityID, rel kg.RelationID, agg AggQuery, eps float64, tr *obs.QueryTrace) (*AggResult, error) {
	start := time.Now()
	q, err := e.beginQuery(dir, ent, rel, tr)
	if err != nil {
		return nil, err
	}
	res, err := e.aggregate(ctx, q, agg, eps, tr)
	if err != nil {
		e.met.queryErrors.Inc()
		return nil, err
	}
	e.met.aggQueries.Inc()
	e.met.latAgg.Observe(time.Since(start).Seconds())
	return res, nil
}

// ballPoint is one accessed entity of the probability ball.
type ballPoint struct {
	id kg.EntityID
	// d orders the points: squared S2 distance on the indexed path (the access
	// order: S1 conversion is the cost being sampled), S1 distance on the exact.
	d    float64
	prob float64 // d1 over its S1 distance, clamped to [0, 1]
	val  float64 // attribute value; 1 for COUNT
}

// aggregate implements Section V-B: find the probability ball around the
// query point, access the a closest points, estimate the aggregate by
// Equation 3 (COUNT/SUM/AVG) or Equation 4 (MAX/MIN), and report the
// Theorem 4 bound parameters. Its cost follows a, not the ball size b
// (DESIGN.md, "Aggregates at top-k cost"):
//
//   - Phase A is one ordered walk. Unbounded, it probes the first
//     nearestProbe points that are neither self nor a known edge for d1;
//     that fixes the ball, and the walk goes on inside it until a eligible
//     points are stored. For attribute aggregates only entities bearing the
//     attribute are eligible: ball members of other types (users in a
//     movie-year query) can never contribute a value, so they count neither
//     in the sample nor in the probability mass, matching the exact path.
//   - Phase B is one unordered descent (rtree.SummarizeBall) accounting for
//     the b - a points nobody accesses: b itself, v_m, the MAX/MIN bound
//     and, for COUNT/SUM, their probability mass. Skipped entities are taken
//     back out of its totals one by one.
//
// The caller holds the engine read lock; aggregate releases it on every
// path, upgrading to the write lock for the cracking step only when the
// query region actually needs it (see Engine.finishQuery).
func (e *Engine) aggregate(ctx context.Context, q query, agg AggQuery, eps float64, tr *obs.QueryTrace) (*AggResult, error) {
	attrIdx := -1
	if agg.Kind != Count {
		if agg.Attr == "" {
			e.mu.RUnlock()
			return nil, fmt.Errorf("core: aggregate needs an attribute: %w", ErrUnknownAttribute)
		}
		attrIdx = e.ps.AttrIndex(agg.Attr)
		if attrIdx < 0 {
			e.mu.RUnlock()
			return nil, errAttr(agg.Attr)
		}
	}
	if agg.Kind < Count || agg.Kind > Min {
		e.mu.RUnlock()
		return nil, fmt.Errorf("core: unknown aggregate kind %v", agg.Kind)
	}
	pTau := agg.PTau
	if pTau <= 0 {
		pTau = e.params.PTau
	}
	// The closest non-skipped S2 points tried for d1, the nearest S1 distance.
	const nearestProbe = 8

	q2 := e.tf.Apply(q.q1)
	tr.Step(obs.StageTransform)

	// Both phases read the tree, so the index read lock is held until the
	// ball is accounted for, and released before finishQuery, which may
	// take it in write mode.
	e.idx.mu.RLock()
	unlock := func() {
		e.idx.mu.RUnlock()
		e.mu.RUnlock()
	}

	// setBall ends the probe. Probabilities decay as d1/d from 1 at the
	// closest entity, so they are >= pTau within d1/pTau; measured in S2 the
	// radius is expanded by (1+eps) to survive the JL distortion. Of the
	// points probed (in ascending order) those inside the ball stay, up to a.
	d1, rTau, r2, bound := math.Inf(1), 0.0, 0.0, math.Inf(1)
	acc := make([]ballPoint, 0, min(max(agg.MaxAccess, nearestProbe), e.ps.N()))
	setBall := func() {
		d1 = max(d1, 1e-12)
		rTau = d1 / pTau
		r2 = rTau * (1 + eps)
		bound = r2 * r2
		n := 0
		for n < len(acc) && acc[n].d <= bound && (agg.MaxAccess <= 0 || n < agg.MaxAccess) {
			n++
		}
		acc = acc[:n]
	}
	probed, visits := 0, 0
	var cancelled error
	e.idx.tree.WalkWithin(q2, func() float64 { return bound }, func(id int32, sqd float64) bool {
		if visits++; visits&255 == 0 && ctx != nil {
			if cancelled = ctx.Err(); cancelled != nil {
				return false
			}
		}
		eid := kg.EntityID(id)
		if q.skips(eid) {
			return true
		}
		if probed < nearestProbe {
			d1 = min(d1, e.s1Dist(q.q1, eid))
			probed++
		}
		if e.ps.HasAttr(attrIdx, id) {
			acc = append(acc, ballPoint{id: eid, d: sqd})
		}
		if probed < nearestProbe {
			return true
		}
		if math.IsInf(bound, 1) {
			setBall()
		}
		return agg.MaxAccess <= 0 || len(acc) < agg.MaxAccess
	})
	if cancelled == nil && ctx != nil {
		cancelled = ctx.Err() // once more before the unordered phase
	}
	if cancelled != nil {
		unlock()
		return nil, cancelled
	}
	if probed == 0 {
		unlock()
		return &AggResult{}, nil // no candidate entities at all
	}
	if probed < nearestProbe {
		setBall() // the walk ran out of points before the probe was complete
	}

	// Access the a closest points: S1 distance, probability, attribute.
	for i := range acc {
		p := &acc[i]
		p.prob = clampProb(d1 / math.Max(e.s1Dist(q.q1, p.id), 1e-12))
		p.val = 1
		if attrIdx >= 0 {
			p.val, _ = e.ps.AttrValue(attrIdx, int32(p.id))
		}
	}

	// The b-a unaccessed probabilities are estimated from S2 distances (the
	// index knows them without touching S1), as the paper estimates tail
	// probabilities from element distances. The raw ratio d1/d2 is biased
	// upward — for the Gaussian projection, E[l1/l2] =
	// sqrt(alpha/2) Gamma((alpha-1)/2) / Gamma(alpha/2) > 1 — so it is
	// divided by that harmonic-mean factor, and the tail keeps the hard
	// membership cut at d2 <= rTau. The cut slightly undercounts the
	// boundary shell (S2 false negatives) while the heavy chi tail of the
	// low-alpha projection would make any prior-free soft-membership
	// weight badly overcount it; with points vastly outnumbering the ball
	// beyond its boundary, the hard cut is the smaller error. See
	// EXPERIMENTS.md for the measured effect. Only COUNT and SUM use the
	// mass: AVG's scale-up p_b/p_a cancels.
	//
	// A point is unaccessed when it follows the last accessed one in the
	// walk's (distance, id) order.
	last := ballPoint{id: -1, d: -1}
	if len(acc) > 0 {
		last = acc[len(acc)-1]
	}
	cAlpha := jlInverseBias(e.params.Alpha)
	tailProb := func(id int32, sqd float64) float64 {
		if sqd < last.d || (sqd == last.d && kg.EntityID(id) <= last.id) {
			return 0
		}
		d2 := math.Sqrt(sqd)
		if d2 > rTau {
			return 0 // outside the S1 ball in expectation
		}
		return clampProb(d1 / math.Max(d2, 1e-12) / cAlpha)
	}
	var tail float64
	var each func(id int32, sqd float64)
	if agg.Kind == Count || agg.Kind == Sum {
		each = func(id int32, sqd float64) { tail += tailProb(id, sqd) }
	}
	st := e.idx.tree.SummarizeBall(q2, r2, attrIdx, each)
	// The summary counted the skipped entities like any other point.
	unskip := func(id kg.EntityID) {
		if sqd := e.ps.SqDistTo(int32(id), q2); sqd <= bound && e.ps.HasAttr(attrIdx, int32(id)) {
			st.Count--
			if each != nil {
				tail -= tailProb(int32(id), sqd)
			}
		}
	}
	for _, id := range q.known {
		unskip(id)
	}
	if !containsSorted(q.known, q.self) {
		unskip(q.self)
	}
	e.idx.mu.RUnlock()
	tr.Step(obs.StageSearch)

	a, b := len(acc), st.Count
	if a < b {
		e.met.aggCapped.Inc()
	}
	e.met.aggAccessed.Add(uint64(a))
	e.met.aggBall.Add(uint64(b))
	if tr != nil {
		tr.Accessed, tr.BallSize = a, b
	}

	// Crack the index for this query region: aggregate queries shape the
	// index exactly as top-k queries do. finishQuery releases the read lock
	// and write-locks the index only if the region still needs to split.
	e.finishQuery(rtree.BallRect(q2, r2), true, tr)

	// v_m: the element statistic, or the sample maximum when there is none.
	res := &AggResult{Accessed: a, BallSize: b, VM: st.MaxAbs}
	if agg.Kind == Count {
		res.VM = 1
	}
	for _, p := range acc {
		res.SumVi2 += p.val * p.val
		if st.MaxAbs == 0 {
			res.VM = max(res.VM, math.Abs(p.val))
		}
	}

	switch agg.Kind {
	case Count, Sum, Avg:
		res.Value = estimateSum(acc, agg.Kind, tail)
	default:
		// Equation 4's sample estimate is sharpened with index metadata, as
		// the paper suggests ("we can maintain minimum statistics at R-tree
		// nodes"): a contour element wholly inside the ball certainly
		// contributes all its points, so its extremum bounds the answer
		// without accessing one. It is read after the crack, which leaves
		// more elements inside. An empty sample must not inject a spurious 0
		// (it would dominate an all-negative MAX), nor an absent element
		// bound drag a real estimate down, so each counts only if it exists.
		e.mu.RLock()
		e.idx.mu.RLock()
		st = e.idx.tree.SummarizeBall(q2, r2, attrIdx, nil)
		unlock()
		// MIN is MAX over negated values; v stays -Inf with neither.
		sign, v := 1.0, st.Max
		if agg.Kind == Min {
			sign, v = -1, -st.Min
		}
		if est, ok := estimateMax(acc, agg.Kind == Min); ok {
			v = math.Max(v, sign*est)
		}
		if !math.IsInf(v, -1) {
			res.Value = sign * v
		}
	}
	tr.Step(obs.StageEstimate)
	return res, nil
}

// jlInverseBias returns E[l1/l2] for the alpha-dimensional Gaussian
// projection: sqrt(alpha/2) * Gamma((alpha-1)/2) / Gamma(alpha/2), the
// multiplicative bias of inverse-distance estimates computed in S2. Defined
// for alpha >= 2; alpha = 1 has infinite expectation and falls back to 1.
func jlInverseBias(alpha int) float64 {
	if alpha < 2 {
		return 1
	}
	a := float64(alpha)
	return math.Sqrt(a/2) * math.Gamma((a-1)/2) / math.Gamma(a/2)
}

// estimateSum implements Equation 3 over the accessed points: the sampled
// probability-weighted sum, scaled up by the ratio of total to sampled
// probability mass, tail being the mass of the unaccessed points. COUNT is
// the sum of v = 1; AVG is SUM over COUNT, whose scale-ups cancel.
func estimateSum(acc []ballPoint, kind AggKind, tail float64) float64 {
	var num, pa float64
	for _, p := range acc {
		num += p.val * p.prob
		pa += p.prob
	}
	if pa <= 0 {
		return 0
	}
	if kind == Avg {
		return num / pa
	}
	return num / (pa / (pa + tail))
}

// estimateMax implements Equation 4. With neg it estimates MIN by negating
// values. The second return is false when nothing was accessed — there is
// no sample, and 0 would be a fabricated estimate (wrong for any
// all-negative MAX or all-positive MIN); callers must fall back to another
// bound or report an empty result.
func estimateMax(accessed []ballPoint, neg bool) (float64, bool) {
	type vp struct{ v, p float64 }
	items := make([]vp, 0, len(accessed))
	var sumP float64
	minV := math.Inf(1)
	for _, bp := range accessed {
		v := bp.val
		if neg {
			v = -v
		}
		items = append(items, vp{v: v, p: bp.prob})
		sumP += bp.prob
		if v < minV {
			minV = v
		}
	}
	if len(items) == 0 {
		return 0, false
	}
	// E[M_S] = sum_i u_i * p_i * prod_{j<i} (1 - p_j) over the values in
	// non-increasing order, plus the residual mass assigned to the sample
	// minimum so the expectation stays within the observed range.
	sort.Slice(items, func(i, j int) bool { return items[i].v > items[j].v })
	ems := 0.0
	carry := 1.0
	for _, it := range items {
		ems += it.v * it.p * carry
		carry *= 1 - it.p
	}
	ems += minV * carry

	// Equation 4's extrapolation beyond the sample maximum, with effective
	// sample size sum of p_i.
	est := ems
	if sumP > 0 {
		est = (ems-minV)*(1+1/sumP) + minV
	}
	if neg {
		return -est, true
	}
	return est, true
}

func clampProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	if p < 0 {
		return 0
	}
	return p
}
