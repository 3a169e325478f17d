package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"vkgraph/internal/core"
	"vkgraph/internal/embedding"
	"vkgraph/vkg"
)

// minPrecision is the gate on precision@10 against the exact scan: well
// under what the default epsilon delivers, well over what a broken walk
// would.
const minPrecision = 0.90

// exactTopK is the benchmark's own ground truth: the ids of the k entities
// nearest to q1 in S1 by brute force, ties broken by id, skipping ids for
// which skip returns true. It shares no code with the engine. A candidate's
// distance sum is abandoned once it passes the current k-th best, which is
// what makes a few hundred scans of 300k vectors affordable in a run.
func exactTopK(m *embedding.Model, q1 []float64, k int, skip func(id int32) bool) []int32 {
	ids := make([]int32, 0, k+1)
	dists := make([]float64, 0, k+1)
	cut := math.Inf(1)
	d := m.Dim
	for i, n := 0, m.NumEntities(); i < n; i++ {
		row := m.Entities[i*d : i*d+d]
		var s float64
		for j := 0; j < d && s <= cut; {
			for end := min(j+10, d); j < end; j++ {
				dv := row[j] - q1[j]
				s += dv * dv
			}
		}
		// Equal distances keep the lower id, which arrived first.
		if s > cut || (s == cut && len(ids) == k) || skip(int32(i)) {
			continue
		}
		pos := len(ids)
		for pos > 0 && dists[pos-1] > s {
			pos--
		}
		ids = append(ids, 0)
		dists = append(dists, 0)
		copy(ids[pos+1:], ids[pos:])
		copy(dists[pos+1:], dists[pos:])
		ids[pos], dists[pos] = int32(i), s
		if len(ids) > k {
			ids, dists = ids[:k], dists[:k]
		}
		if len(ids) == k {
			cut = dists[k-1]
		}
	}
	return ids
}

// queryPoint returns the S1 point a read op searches around and the filter
// the engine applies: the query entity itself and the known edges are not
// predictions.
func queryPoint(m *embedding.Model, g *vkg.Graph, o op) ([]float64, func(int32) bool) {
	if o.Heads {
		return m.HeadQueryPoint(o.Entity, o.Rel), func(id int32) bool {
			return id == o.Entity || g.HasEdge(id, o.Rel, o.Entity)
		}
	}
	return m.TailQueryPoint(o.Entity, o.Rel), func(id int32) bool {
		return id == o.Entity || g.HasEdge(o.Entity, o.Rel, id)
	}
}

// precisionAt10 answers each probe through the index and by the exact scan
// and returns the share of exact top-10 entities the index returned. No
// mutation may run concurrently: the graph and model are read unlocked.
func precisionAt10(v *vkg.VKG, probes []op) (float64, error) {
	const workers = 2
	m, g := v.Engine().Model(), v.Graph()
	ctx := context.Background()
	var (
		wg        sync.WaitGroup
		hit, want [workers]int
		errs      [workers]error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(probes); i += workers {
				o := probes[i]
				res, err := v.Do(ctx, o.query())
				if err != nil {
					errs[w] = fmt.Errorf("precision probe: %w", err)
					return
				}
				q1, skip := queryPoint(m, g, o)
				exact := exactTopK(m, q1, topK, skip)
				for _, p := range res.TopK.Predictions {
					if slices.Contains(exact, p.Entity) {
						hit[w]++
					}
				}
				want[w] += len(exact)
			}
		}(w)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return 0, err
	}
	if want[0]+want[1] == 0 {
		return 0, fmt.Errorf("precision probe: the exact scan returned nothing")
	}
	return float64(hit[0]+hit[1]) / float64(want[0]+want[1]), nil
}

// aggCheck is the outcome of the aggregate probes.
type aggCheck struct {
	Probes     int
	Outside    int     // estimates farther from the exact value than their own radius
	MeanRelErr float64 // mean |estimate - exact| / |exact|
}

// aggConfidence is the confidence at which an estimate's Theorem 4 radius
// is read for the gate.
const aggConfidence = 0.95

// checkAggregates compares each probe's sampled estimate with the engine's
// exact aggregate (every ball point accessed) and counts the estimates
// whose error exceeds the radius the answer itself reported.
func checkAggregates(v *vkg.VKG, probes []op) (aggCheck, error) {
	ctx := context.Background()
	out := aggCheck{}
	var sum float64
	for _, o := range probes {
		res, err := v.Do(ctx, o.query())
		if err != nil {
			return out, fmt.Errorf("aggregate probe: %w", err)
		}
		req := core.Request{Kind: core.KindAggregate, Entity: o.Entity, Rel: o.Rel,
			Agg: core.AggQuery{Kind: core.Avg, Attr: aggAttr}, NoIndex: true}
		if o.Heads {
			req.Dir = core.DirHead
		}
		exact := v.Engine().Do(ctx, req)
		if exact.Err != nil {
			return out, fmt.Errorf("aggregate probe, exact: %w", exact.Err)
		}
		if exact.Agg.Value == 0 {
			continue // an empty ball has no relative error
		}
		rel := math.Abs(res.Agg.Value-exact.Agg.Value) / math.Abs(exact.Agg.Value)
		out.Probes++
		sum += rel
		if rel > res.Agg.ConfidenceRadius(aggConfidence) {
			out.Outside++
		}
	}
	if out.Probes > 0 {
		out.MeanRelErr = sum / float64(out.Probes)
	}
	return out, nil
}

// sameAnswers reports the first probe on which two answer lists differ in
// entity ids or their order; "" when they agree.
func sameAnswers(a, b [][]int32) string {
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return fmt.Sprintf("probe %d: %d entities against %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return fmt.Sprintf("probe %d rank %d: entity %d against %d", i, j, a[i][j], b[i][j])
			}
		}
	}
	return ""
}

// answers runs the probes in-process and keeps each answer's entity ids.
func answers(v *vkg.VKG, probes []op) ([][]int32, error) {
	ctx := context.Background()
	out := make([][]int32, len(probes))
	for i, o := range probes {
		res, err := v.Do(ctx, o.query())
		if err != nil {
			return nil, fmt.Errorf("probe %d: %w", i, err)
		}
		for _, p := range res.TopK.Predictions {
			out[i] = append(out[i], p.Entity)
		}
	}
	return out, nil
}
