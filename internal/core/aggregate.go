package core

import (
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
	// in the ball. The paper's Figures 12-16 sweep this knob.
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

// AggregateTails answers an aggregate query over the predicted tails of
// (h, r, ?): Q2 of the paper ("average age of people who would like
// Restaurant 2" is the symmetric AggregateHeads). Safe for concurrent use.
func (e *Engine) AggregateTails(h kg.EntityID, r kg.RelationID, q AggQuery) (*AggResult, error) {
	return e.aggregateQuery(DirTail, h, r, q, e.params.Eps, nil)
}

// AggregateHeads answers an aggregate query over the predicted heads of
// (?, r, t). Safe for concurrent use.
func (e *Engine) AggregateHeads(t kg.EntityID, r kg.RelationID, q AggQuery) (*AggResult, error) {
	return e.aggregateQuery(DirHead, t, r, q, e.params.Eps, nil)
}

// aggregateQuery is the shared body of the aggregate entry points; the eps
// parameter lets Do/DoBatch apply a per-request ball-expansion override and
// tr, when non-nil, collects the per-stage breakdown.
func (e *Engine) aggregateQuery(dir Dir, ent kg.EntityID, rel kg.RelationID, q AggQuery, eps float64, tr *obs.QueryTrace) (*AggResult, error) {
	start := time.Now()
	if e.prepareIndex() {
		// Building the roots is index construction the first query pays
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
	var res *AggResult
	var err error
	if dir == DirHead {
		res, err = e.aggregate(e.m.HeadQueryPoint(ent, rel), q, e.skipHeads(ent, rel), eps, tr)
	} else {
		res, err = e.aggregate(e.m.TailQueryPoint(ent, rel), q, e.skipTails(ent, rel), eps, tr)
	}
	if err != nil {
		e.met.queryErrors.Inc()
		return nil, err
	}
	e.met.aggQueries.Inc()
	e.met.latAgg.ObserveExemplar(time.Since(start).Seconds(), tr.TraceID())
	return res, nil
}

// ballPoint is one entity of the probability ball, ordered by S2 distance
// (the access order: S1 conversion is the cost being sampled).
type ballPoint struct {
	id kg.EntityID
	d2 float64 // S2 distance
	// Filled for accessed points only:
	d1   float64
	prob float64
	val  float64
	has  bool
}

// aggregate implements Section V-B: find the probability ball around the
// query point, access the a closest points, estimate the aggregate by
// Equation 3 (COUNT/SUM/AVG) or Equation 4 (MAX/MIN), and report the
// Theorem 4 bound parameters.
//
// The caller holds the engine read lock; aggregate releases it on every
// path, upgrading to the write lock for the cracking step only when the
// query region actually needs it (see Engine.finishQuery).
func (e *Engine) aggregate(q1 []float64, q AggQuery, skip func(kg.EntityID) bool, eps float64, tr *obs.QueryTrace) (*AggResult, error) {
	attrIdx := -1
	if q.Kind != Count {
		if q.Attr == "" {
			e.mu.RUnlock()
			return nil, fmt.Errorf("core: aggregate needs an attribute: %w", ErrUnknownAttribute)
		}
		attrIdx = e.ps.AttrIndex(q.Attr)
		if attrIdx < 0 {
			e.mu.RUnlock()
			return nil, errAttr(q.Attr)
		}
	}
	pTau := q.PTau
	if pTau <= 0 {
		pTau = e.params.PTau
	}

	q2 := e.tf.Apply(q1)
	tr.Step(obs.StageTransform)

	// The walks below (nearest probe, ball collection, contour statistics)
	// read every shard tree, so all shard read locks are held from here
	// until the ball is collected; they must be released before finishQuery,
	// which takes shard write locks.
	e.rlockShards()

	// The ball radius: the closest entity has probability 1 at distance d1
	// and probabilities decay as d1/d, so probability >= pTau within
	// radius d1/pTau (in S1; expanded by (1+eps) to survive the JL
	// distortion when measured in S2).
	d1 := e.nearestDist(q1, q2, skip)
	if math.IsInf(d1, 1) {
		e.runlockShards()
		e.mu.RUnlock()
		return &AggResult{}, nil // no candidate entities at all
	}
	if d1 <= 0 {
		d1 = 1e-12
	}
	rTau := d1 / pTau
	r2 := rTau * (1 + eps)

	// Collect the ball in ascending S2 distance (the access order), merged
	// across every shard the ball overlaps. For attribute aggregates only
	// entities bearing the attribute are relevant — ball members of other
	// types (e.g. users in a movie-year query) can never contribute a
	// value, so they are excluded from both the sample and the probability
	// mass, matching the exact path.
	var ball []ballPoint
	rtree.WalkTreesWithin(e.trees, q2, func() float64 { return r2 * r2 }, func(id int32, sqd float64) bool {
		eid := kg.EntityID(id)
		if skip(eid) {
			return true
		}
		if attrIdx >= 0 {
			if _, ok := e.ps.AttrValue(attrIdx, id); !ok {
				return true
			}
		}
		ball = append(ball, ballPoint{id: eid, d2: math.Sqrt(sqd)})
		return true
	})

	b := len(ball)
	a := b
	if q.MaxAccess > 0 && q.MaxAccess < b {
		a = q.MaxAccess
		e.met.aggCapped.Inc()
	}
	e.met.aggAccessed.Add(uint64(a))
	e.met.aggBall.Add(uint64(b))
	if tr != nil {
		tr.Accessed, tr.BallSize = a, b
	}

	// Access the a closest points: S1 distance, probability, attribute.
	for i := 0; i < a; i++ {
		p := &ball[i]
		p.d1 = e.s1DistFast(q1, p.id)
		p.prob = clampProb(d1 / math.Max(p.d1, 1e-12))
		if q.Kind == Count {
			p.val, p.has = 1, true
		} else {
			p.val, p.has = e.ps.AttrValue(attrIdx, int32(p.id))
		}
	}
	// Estimate the b-a unaccessed probabilities from their S2 distances
	// (the index knows them without touching S1), as the paper estimates
	// tail probabilities from element distances. The raw ratio d1/d2 is
	// biased upward — for the Gaussian projection, E[l1/l2] =
	// sqrt(alpha/2) Gamma((alpha-1)/2) / Gamma(alpha/2) > 1 — so it is
	// divided by that harmonic-mean factor, and the tail keeps the hard
	// membership cut at d2 <= rTau. The cut slightly undercounts the
	// boundary shell (S2 false negatives) while the heavy chi tail of the
	// low-alpha projection would make any prior-free soft-membership
	// weight badly overcount it; with points vastly outnumbering the ball
	// beyond its boundary, the hard cut is the smaller error. See
	// EXPERIMENTS.md for the measured effect.
	cAlpha := jlInverseBias(e.params.Alpha)
	for i := a; i < b; i++ {
		p := &ball[i]
		if p.d2 > rTau {
			continue // outside the S1 ball in expectation; prob stays 0
		}
		p.prob = clampProb(d1 / math.Max(p.d2, 1e-12) / cAlpha)
	}

	// v_m: prefer contour-element statistics (max |v| among elements
	// overlapping the ball), fall back to the sample maximum.
	vm := e.tailMaxAbs(q2, r2, attrIdx, ball[:a], q.Kind)
	e.runlockShards()
	tr.Step(obs.StageSearch)

	// Crack the index for this query region: aggregate queries shape the
	// index exactly as top-k queries do. finishQuery releases the read lock
	// and only write-locks the shards the region still needs to split.
	e.finishQuery(rtree.BallRect(q2, r2), true, tr)

	res := &AggResult{Accessed: a, BallSize: b, VM: vm}
	for i := 0; i < a; i++ {
		if ball[i].has {
			res.SumVi2 += ball[i].val * ball[i].val
		}
	}

	switch q.Kind {
	case Count, Sum:
		res.Value = estimateSum(ball, a, b)
	case Avg:
		sum := estimateSum(ball, a, b)
		cnt := estimateCount(ball, a, b)
		if cnt > 0 {
			res.Value = sum / cnt
		}
	case Max:
		// Combine the sample estimate with the certain element bound only
		// when each actually exists: an empty sample must not inject a
		// spurious 0 (which would dominate an all-negative MAX), and an
		// absent element bound (-Inf) must not drag a real estimate down.
		est, ok := estimateMax(ball[:a], false)
		e.mu.RLock()
		e.rlockShards()
		eb := e.elementBound(q2, r2, attrIdx, false)
		e.runlockShards()
		e.mu.RUnlock()
		switch {
		case ok && !math.IsInf(eb, -1):
			res.Value = math.Max(est, eb)
		case ok:
			res.Value = est
		case !math.IsInf(eb, -1):
			res.Value = eb
		}
		// Neither: no sample and no covered element — res stays empty.
	case Min:
		est, ok := estimateMax(ball[:a], true)
		e.mu.RLock()
		e.rlockShards()
		eb := e.elementBound(q2, r2, attrIdx, true)
		e.runlockShards()
		e.mu.RUnlock()
		switch {
		case ok && !math.IsInf(eb, 1):
			res.Value = math.Min(est, eb)
		case ok:
			res.Value = est
		case !math.IsInf(eb, 1):
			res.Value = eb
		}
	default:
		return nil, fmt.Errorf("core: unknown aggregate kind %v", q.Kind)
	}
	tr.Step(obs.StageEstimate)
	return res, nil
}

// elementBound sharpens MAX/MIN estimates with index metadata, as the paper
// suggests ("we can maintain minimum statistics at R-tree nodes"): every
// contour element that lies entirely inside the ball certainly contributes
// all of its points, so its stored attribute extremum is a certain bound on
// the answer without accessing a single point. Returns -Inf (or +Inf for
// min) when no element qualifies.
func (e *Engine) elementBound(q2 []float64, radius float64, attrIdx int, isMin bool) float64 {
	best := math.Inf(-1)
	if isMin {
		best = math.Inf(1)
	}
	if attrIdx < 0 {
		return best
	}
	for _, s := range e.contourOverlap(q2, radius) {
		if s.MaxDist > radius {
			continue // only partially inside; membership uncertain
		}
		st := s.Attrs[attrIdx]
		if st.Count == 0 {
			continue
		}
		if isMin {
			if st.Min < best {
				best = st.Min
			}
		} else if st.Max > best {
			best = st.Max
		}
	}
	return best
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

// nearestDist returns the S1 distance of the closest non-skipped entity to
// q1, probing the first few non-skipped points of the merged S2 walk. The
// walk order is structure-independent, so sharded and unsharded engines
// probe the same points and derive the same ball radius. The caller must
// hold the engine read lock and every shard read lock.
func (e *Engine) nearestDist(q1, q2 []float64, skip func(kg.EntityID) bool) float64 {
	const probe = 8
	best := math.Inf(1)
	seen := 0
	rtree.WalkTreesWithin(e.trees, q2, func() float64 { return math.Inf(1) },
		func(id int32, _ float64) bool {
			eid := kg.EntityID(id)
			if skip(eid) {
				return true
			}
			if d := e.s1Dist(q1, eid); d < best {
				best = d
			}
			seen++
			return seen < probe
		})
	return best
}

// tailMaxAbs estimates v_m, the largest |value| among unaccessed ball
// points: the max of contour-element MaxAbs statistics over elements
// overlapping the ball, or the sample max when no element statistics apply
// (e.g. COUNT, where v == 1).
func (e *Engine) tailMaxAbs(q2 []float64, r2 float64, attrIdx int, accessed []ballPoint, kind AggKind) float64 {
	if kind == Count {
		return 1
	}
	vm := 0.0
	for _, s := range e.contourOverlap(q2, r2) {
		if attrIdx < len(s.Attrs) && s.Attrs[attrIdx].Count > 0 {
			if s.Attrs[attrIdx].MaxAbs > vm {
				vm = s.Attrs[attrIdx].MaxAbs
			}
		}
	}
	if vm == 0 {
		for _, p := range accessed {
			if p.has && math.Abs(p.val) > vm {
				vm = math.Abs(p.val)
			}
		}
	}
	return vm
}

// estimateSum implements Equation 3: the sampled probability-weighted sum,
// scaled up by the ratio of total to sampled probability mass.
func estimateSum(ball []ballPoint, a, b int) float64 {
	var num, pa, pb float64
	for i := 0; i < a; i++ {
		if ball[i].has {
			num += ball[i].val * ball[i].prob
		}
		pa += ball[i].prob
	}
	pb = pa
	for i := a; i < b; i++ {
		pb += ball[i].prob
	}
	if pa <= 0 {
		return 0
	}
	return num / (pa / pb)
}

// estimateCount is Equation 3 with v_i = 1 (COUNT = SUM(1)).
func estimateCount(ball []ballPoint, a, b int) float64 {
	var pa, pb float64
	cnt := 0.0
	for i := 0; i < a; i++ {
		if ball[i].has {
			cnt += ball[i].prob
		}
		pa += ball[i].prob
	}
	pb = pa
	for i := a; i < b; i++ {
		pb += ball[i].prob
	}
	if pa <= 0 {
		return 0
	}
	return cnt / (pa / pb)
}

// estimateMax implements Equation 4. With neg it estimates MIN by negating
// values. Points without the attribute are ignored. The second return is
// false when no accessed point carried a value — there is no sample, and 0
// would be a fabricated estimate (wrong for any all-negative MAX or
// all-positive MIN); callers must fall back to another bound or report an
// empty result.
func estimateMax(accessed []ballPoint, neg bool) (float64, bool) {
	type vp struct{ v, p float64 }
	items := make([]vp, 0, len(accessed))
	var sumP float64
	minV := math.Inf(1)
	for _, bp := range accessed {
		if !bp.has {
			continue
		}
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
