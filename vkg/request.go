package vkg

import (
	"context"
	"fmt"

	"vkgraph/internal/core"
	"vkgraph/internal/obs"
)

// This file is the unified request API: every query the method pairs
// (TopKTails/TopKHeads, AggregateTails/AggregateHeads) can express is one
// Query value, answered by Do or, for serving workloads, fanned across a
// worker pool by DoBatch. The legacy methods remain as thin wrappers over
// Do, so both surfaces share validation, the result cache, and the
// in-flight coalescing of duplicate requests.

// Direction selects which side of the relation a query predicts.
type Direction = core.Dir

const (
	// Tails predicts t in (Entity, Relation, ?) — "what would Amy like?".
	Tails = core.DirTail
	// Heads predicts h in (?, Relation, Entity) — "who would like this?".
	Heads = core.DirHead
)

// QueryKind selects between the paper's two query families.
type QueryKind = core.QueryKind

const (
	// TopK is a predictive top-k entity query (Algorithm 3).
	TopK = core.KindTopK
	// Aggregate is a sampled aggregate query (Section V-B).
	Aggregate = core.KindAggregate
)

// Query is a first-class predictive query. Zero values give a tail top-k
// query, so the common case reads naturally:
//
//	v.Do(ctx, vkg.Query{Entity: amy, Relation: likes, K: 5})
type Query struct {
	Kind     QueryKind
	Dir      Direction
	Entity   EntityID
	Relation RelationID
	// K is the result size of a TopK query.
	K int
	// Agg describes an Aggregate query; ignored for TopK.
	Agg AggSpec
	// Epsilon overrides the build-time WithEpsilon for this query when > 0:
	// a larger value buys a better Theorem 2 recall bound at higher cost.
	Epsilon float64
	// ProbThreshold overrides p_tau for this Aggregate query when > 0. It
	// takes precedence over Agg.ProbThreshold.
	ProbThreshold float64
	// Trace requests a per-stage timing breakdown in Result.Trace and
	// offers the trace to the engine's trace store, which keeps it when it
	// failed or ran slower than SetTraceSlowThreshold. The cost is two
	// timestamps per stage; leave it off for throughput runs.
	Trace bool
	// TraceParent joins the query to an existing distributed trace: a W3C
	// `traceparent` header value ("00-<traceid>-<spanid>-<flags>") whose
	// trace id the query adopts and whose span becomes the parent of the
	// query's span. A sampled flag (01) forces the trace's retention in the
	// trace store. Malformed values are ignored (the query runs with a fresh
	// trace, per the spec). Setting TraceParent activates tracing even when
	// Trace is false.
	TraceParent string
}

// Result is the answer to one Query: TopK is set for top-k queries, Agg for
// aggregates. Err is only used by DoBatch, which reports per-query failures
// in place instead of failing the batch. Trace is the stage breakdown when
// the query asked for one or carried a TraceParent (nil otherwise);
// Trace.TraceID() is the handle for /traces/<id> on the ops page.
type Result = core.Response

// Do answers one query, honoring ctx cancellation. Repeat top-k queries on
// an unchanged graph are served from an LRU result cache (invalidated by
// AddFact and InsertEntity), and identical queries issued concurrently are
// coalesced into one index descent.
func (v *VKG) Do(ctx context.Context, q Query) (*Result, error) {
	req, err := v.toRequest(q)
	if err != nil {
		return nil, err
	}
	res := v.eng.Do(ctx, req)
	if res.Err != nil {
		return nil, res.Err
	}
	return &res, nil
}

// DoBatch answers a batch of queries on a bounded worker pool (one worker
// per CPU) and returns results in query order. Failures — validation
// errors, unknown ids, ctx cancellation — land in the matching Result.Err;
// the rest of the batch is unaffected. Cancelling ctx mid-batch fails the
// not-yet-started queries with ctx.Err() and keeps completed answers.
func (v *VKG) DoBatch(ctx context.Context, qs []Query) []Result {
	return v.DoBatchWorkers(ctx, qs, 0)
}

// DoBatchWorkers is DoBatch with an explicit worker-pool size; workers <= 0
// selects GOMAXPROCS. Queries whose index region is already cracked run
// concurrently under the read lock; the few that still split serialize on
// the engine write lock.
func (v *VKG) DoBatchWorkers(ctx context.Context, qs []Query, workers int) []Result {
	out := make([]Result, len(qs))
	idxs := make([]int, 0, len(qs))
	reqs := make([]core.Request, 0, len(qs))
	for i, q := range qs {
		req, err := v.toRequest(q)
		if err != nil {
			out[i].Err = err
			continue
		}
		idxs = append(idxs, i)
		reqs = append(reqs, req)
	}
	for j, res := range v.eng.DoBatchWorkers(ctx, reqs, workers) {
		out[idxs[j]] = res
	}
	return out
}

// toRequest validates a Query at the API edge and lowers it to the engine
// request type.
func (v *VKG) toRequest(q Query) (core.Request, error) {
	req := core.Request{
		Kind:    q.Kind,
		Dir:     q.Dir,
		Entity:  q.Entity,
		Rel:     q.Relation,
		Eps:     q.Epsilon,
		NoIndex: v.noIdx,
		Trace:   q.Trace,
	}
	if q.TraceParent != "" {
		if id, span, sampled, ok := obs.ParseTraceparent(q.TraceParent); ok {
			req.TraceID, req.ParentSpan, req.TraceForced = id, span, sampled
		}
	}
	if q.Epsilon < 0 {
		return req, fmt.Errorf("vkg: negative epsilon %v", q.Epsilon)
	}
	if q.ProbThreshold < 0 || q.ProbThreshold > 1 {
		return req, fmt.Errorf("vkg: probability threshold %v outside (0, 1]", q.ProbThreshold)
	}
	if q.Dir != Tails && q.Dir != Heads {
		return req, fmt.Errorf("vkg: unknown query direction %d", q.Dir)
	}
	switch q.Kind {
	case TopK:
		req.K = q.K
	case Aggregate:
		spec := q.Agg
		if q.ProbThreshold > 0 {
			spec.ProbThreshold = q.ProbThreshold
		}
		aq, err := convertAgg(spec)
		if err != nil {
			return req, err
		}
		req.Agg = aq
	default:
		return req, fmt.Errorf("vkg: unknown query kind %d", q.Kind)
	}
	return req, nil
}

// CacheStats reports the top-k result cache counters: hits, misses, and
// resident entries.
type CacheStats = core.CacheStats

// CacheStats returns the current result-cache counters.
func (v *VKG) CacheStats() CacheStats { return v.eng.CacheStats() }
