package core

import (
	"fmt"
	"math"
	"sort"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/scan"
)

// This file provides the "no index" reference paths: brute-force iteration
// over every entity in S1. They serve as the performance baseline of
// Figures 3, 5, 7 and as the accuracy ground truth for precision@K
// (Figures 4, 6, 8) and for the aggregate experiments (Figures 12-16).

// TopKNoIndex answers the top-k query of TopK by scanning all entities in
// S1. The scan never touches the index, so the whole query runs under the
// read lock (safe for concurrent use, and never blocks other queries).
func (e *Engine) TopKNoIndex(dir Dir, ent kg.EntityID, rel kg.RelationID, k int) (*TopKResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q, err := e.resolve(dir, ent, rel)
	if err != nil {
		return nil, err
	}
	return e.scanTopK(q, k), nil
}

// scanNorm is the scan norm that ranks like the model's: squared L2 for
// L2.
func (e *Engine) scanNorm() scan.Norm {
	if e.m.NormUsed == embedding.L1 {
		return scan.L1
	}
	return scan.SqL2
}

// s1 turns a distance under scanNorm into the S1 distance.
func (e *Engine) s1(scanDist float64) float64 {
	if e.m.NormUsed == embedding.L1 {
		return scanDist
	}
	return math.Sqrt(scanDist)
}

func (e *Engine) scanTopK(q query, k int) *TopKResult {
	nbs := scan.TopK(e.m.Dim, e.m.Entities, q.q1, k, e.scanNorm(), func(id int32) bool { return q.skips(kg.EntityID(id)) })
	res := &TopKResult{Predictions: make([]Prediction, 0, len(nbs)), RecallBound: 1, Examined: e.g.NumEntities()}
	for _, nb := range nbs {
		res.Predictions = append(res.Predictions, Prediction{
			Entity: kg.EntityID(nb.ID),
			Dist:   e.s1(nb.Dist),
		})
	}
	e.finishPredictions(res.Predictions)
	return res
}

// AggregateExact computes the aggregate ground truth of Aggregate: every
// entity is scanned in S1, the probability ball is exact, and every ball
// point is accessed (a = b). This is the reference for the accuracy metric
// 1 - |v_returned - v_true| / v_true of Figures 12-16.
func (e *Engine) AggregateExact(dir Dir, ent kg.EntityID, rel kg.RelationID, agg AggQuery) (*AggResult, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	q, err := e.resolve(dir, ent, rel)
	if err != nil {
		return nil, err
	}
	return e.aggregateExact(q, agg)
}

func (e *Engine) aggregateExact(q query, agg AggQuery) (*AggResult, error) {
	attrIdx := -1
	if agg.Kind != Count {
		attrIdx = e.ps.AttrIndex(agg.Attr)
		if attrIdx < 0 {
			return nil, errAttr(agg.Attr)
		}
	}
	pTau := agg.PTau
	if pTau <= 0 {
		pTau = e.params.PTau
	}
	skipFn := func(id int32) bool { return q.skips(kg.EntityID(id)) }

	// Exact d1 and exact S1 ball.
	norm := e.scanNorm()
	nearest := scan.TopK(e.m.Dim, e.m.Entities, q.q1, 1, norm, skipFn)
	if len(nearest) == 0 {
		return &AggResult{}, nil
	}
	d1 := e.s1(nearest[0].Dist)
	if d1 <= 0 {
		d1 = 1e-12
	}
	rTau := d1 / pTau
	radius := rTau
	if norm == scan.SqL2 {
		radius = rTau * rTau
	}
	within := scan.Within(e.m.Dim, e.m.Entities, q.q1, radius, norm, skipFn)

	ball := make([]ballPoint, 0, len(within))
	for _, nb := range within {
		bp := ballPoint{id: kg.EntityID(nb.ID), d: e.s1(nb.Dist), val: 1}
		bp.prob = clampProb(d1 / math.Max(bp.d, 1e-12))
		if agg.Kind != Count {
			var has bool
			if bp.val, has = e.ps.AttrValue(attrIdx, int32(bp.id)); !has {
				continue // same relevance filter as the indexed path
			}
		}
		ball = append(ball, bp)
	}
	sort.Slice(ball, func(i, j int) bool {
		if ball[i].d != ball[j].d {
			return ball[i].d < ball[j].d
		}
		return ball[i].id < ball[j].id
	})

	b := len(ball)
	res := &AggResult{Accessed: b, BallSize: b}
	for _, bp := range ball {
		res.SumVi2 += bp.val * bp.val
	}
	switch agg.Kind {
	case Count, Sum, Avg:
		res.Value = estimateSum(ball, agg.Kind, 0)
	case Max:
		res.Value, _ = estimateMax(ball, false)
	case Min:
		res.Value, _ = estimateMax(ball, true)
	}
	return res, nil
}

func errAttr(name string) error {
	return fmt.Errorf("core: attribute %q not registered with the index: %w", name, ErrUnknownAttribute)
}
