package vkg

import (
	"context"
	"fmt"

	"vkgraph/internal/core"
	"vkgraph/internal/rtree"
)

// Prediction is one predicted edge: the entity and its display name, its
// embedding distance to the query point (smaller is more plausible), and the
// predicted probability (1 for the closest entity, decaying inversely with
// distance).
type Prediction = core.Prediction

// TopKResult carries the ranked predictions with the paper's Theorem 2
// accuracy guarantee (RecallBound, ExpectedMisses) and the number of
// candidates Examined. Answers may be shared with the result cache and other
// callers: treat them as read-only.
type TopKResult = core.TopKResult

// TopKTails returns the k entities most likely to be a tail of (h, r, ?),
// excluding facts already in the graph — e.g. "top-5 restaurants Amy would
// rate high but has not been to yet". It is a thin wrapper over Do; for
// many queries at once, use DoBatch.
func (v *VKG) TopKTails(h EntityID, r RelationID, k int) (*TopKResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: TopK, Dir: Tails, Entity: h, Relation: r, K: k})
	if err != nil {
		return nil, err
	}
	return res.TopK, nil
}

// TopKHeads returns the k entities most likely to be a head of (?, r, t) —
// e.g. "top-5 people who would like Restaurant 2". It is a thin wrapper
// over Do; for many queries at once, use DoBatch.
func (v *VKG) TopKHeads(t EntityID, r RelationID, k int) (*TopKResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: TopK, Dir: Heads, Entity: t, Relation: r, K: k})
	if err != nil {
		return nil, err
	}
	return res.TopK, nil
}

// AggKind selects the aggregate function.
type AggKind = core.AggKind

const (
	Count = core.Count
	Sum   = core.Sum
	Avg   = core.Avg
	Max   = core.Max
	Min   = core.Min
)

// AggSpec describes an aggregate query over predicted edges.
type AggSpec struct {
	Kind AggKind
	// Attr is the aggregated attribute (registered via WithAttributes).
	// Count counts predicted edges rather than aggregating values, so
	// setting Attr on a Count is rejected.
	Attr string
	// MaxAccess is the sample size a: the number of closest ball entities
	// whose attributes are materialized. 0 accesses the whole ball. This
	// is the speed/accuracy knob of Figures 12-16.
	MaxAccess int
	// ProbThreshold overrides the build-time p_tau for this query.
	ProbThreshold float64
}

// AggResult is an aggregate estimate (Value, with Accessed = a and BallSize
// = b of the probability ball) and its Theorem 4 martingale bound:
// ErrorProbability(delta) bounds the probability that the ground truth
// deviates from Value by more than the relative delta, and
// ConfidenceRadius(conf) is the relative error radius guaranteed with the
// given confidence (e.g. 0.95).
type AggResult = core.AggResult

// convertAgg validates an AggSpec at the API edge — so misuse fails loudly
// here rather than behaving oddly deep in the sampling estimators — and
// lowers it to the engine query type.
func convertAgg(spec AggSpec) (core.AggQuery, error) {
	q := core.AggQuery{
		Kind:      spec.Kind,
		Attr:      spec.Attr,
		MaxAccess: spec.MaxAccess,
		PTau:      spec.ProbThreshold,
	}
	if spec.MaxAccess < 0 {
		return q, fmt.Errorf("vkg: negative MaxAccess %d", spec.MaxAccess)
	}
	if spec.ProbThreshold < 0 || spec.ProbThreshold > 1 {
		return q, fmt.Errorf("vkg: probability threshold %v outside (0, 1]", spec.ProbThreshold)
	}
	if spec.Kind < Count || spec.Kind > Min {
		return q, fmt.Errorf("vkg: unknown aggregate kind %d", spec.Kind)
	}
	if spec.Kind == Count && spec.Attr != "" {
		return q, fmt.Errorf("vkg: Attr %q set on a Count aggregate (Count counts predicted edges, not attribute values)", spec.Attr)
	}
	return q, nil
}

// AggregateTails estimates an aggregate over the predicted tails of
// (h, r, ?) — e.g. "the expected number of restaurants Amy may like". It is
// a thin wrapper over Do; for many queries at once, use DoBatch.
func (v *VKG) AggregateTails(h EntityID, r RelationID, spec AggSpec) (*AggResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: Aggregate, Dir: Tails, Entity: h, Relation: r, Agg: spec})
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

// AggregateHeads estimates an aggregate over the predicted heads of
// (?, r, t) — e.g. "the average age of the people who would like
// Restaurant 2" (Q2 of the paper). It is a thin wrapper over Do; for many
// queries at once, use DoBatch.
func (v *VKG) AggregateHeads(t EntityID, r RelationID, spec AggSpec) (*AggResult, error) {
	res, err := v.Do(context.Background(), Query{Kind: Aggregate, Dir: Heads, Entity: t, Relation: r, Agg: spec})
	if err != nil {
		return nil, err
	}
	return res.Agg, nil
}

// IndexStats summarizes the index structure: node counts, binary splits
// performed, and estimated size in bytes. For a cracking index these grow
// with the query workload and converge quickly (Figs. 9-11 of the paper).
type IndexStats = rtree.Stats

// IndexStats returns current index statistics.
func (v *VKG) IndexStats() IndexStats { return v.eng.IndexStats() }
