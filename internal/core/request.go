package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"vkgraph/internal/kg"
	"vkgraph/internal/obs"
)

// This file is the unified request surface over the engine: every query the
// four entry points (TopK, Aggregate and their NoIndex/Exact scans) can
// express is one Request value, executed by Do or fanned across a worker
// pool by DoBatchWorkers. Serving throughput is
// the system here — the cracking index is built by the workload (Section IV)
// — so every top-k key has one slot in the result cache: while its leader
// computes, the slot is the call in flight that duplicates wait on, and once
// finished it is the answer repeats of a converged region get without a
// tree descent.

// Dir selects which side of the relation a query predicts.
type Dir int

const (
	// DirTail predicts t in (e, r, ?) — "what would Amy like?".
	DirTail Dir = iota
	// DirHead predicts h in (?, r, e) — "who would like this?".
	DirHead
)

// QueryKind selects between the two query families of the paper.
type QueryKind int

const (
	// KindTopK is a predictive top-k entity query (Algorithm 3).
	KindTopK QueryKind = iota
	// KindAggregate is a sampled aggregate query (Section V-B).
	KindAggregate
)

// Request is one predictive query in normal form.
type Request struct {
	Kind   QueryKind
	Dir    Dir
	Entity kg.EntityID
	Rel    kg.RelationID
	// K is the result size of a top-k request.
	K int
	// Agg describes an aggregate request (including its per-query PTau and
	// MaxAccess); ignored for top-k.
	Agg AggQuery
	// Eps overrides the engine's query-expansion epsilon when > 0.
	Eps float64
	// NoIndex answers by the exact S1 scan (the ground-truth baseline)
	// instead of the index.
	NoIndex bool
	// Trace requests a per-stage timing breakdown in Response.Trace. The
	// exact-scan baseline (NoIndex) is never traced — it has no stages.
	Trace bool
	// TraceID joins the query to an existing request tree: the query's trace
	// adopts this id (a zero id mints a fresh one) and hangs its span under
	// ParentSpan. A non-zero id activates tracing even when Trace is false —
	// a caller propagating trace context wants the spans collected.
	TraceID    obs.TraceID
	ParentSpan obs.SpanID
	// TraceForced marks the trace for guaranteed retention in the trace
	// store (set by the serving layer for sampled inbound traceparents and
	// explicitly requested traces).
	TraceForced bool
}

// Response is the answer to one Request: exactly one of TopK or Agg is set
// on success, Err on failure (including context cancellation). The batch
// calls report per-query failures in Err in place instead of failing the
// batch.
type Response struct {
	TopK *TopKResult
	Agg  *AggResult
	Err  error
	// Trace is the stage breakdown when the request asked for one or carried
	// trace context; nil otherwise.
	// Trace.TraceID() is the handle for /traces/<id> on the ops endpoint.
	Trace *obs.QueryTrace
}

// Do answers one request. It checks ctx before executing; a nil ctx is
// treated as context.Background(). Top-k answers may be served from the
// result cache and are shared — callers must not mutate them.
func (e *Engine) Do(ctx context.Context, req Request) Response {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Response{Err: err}
		}
	}
	switch req.Kind {
	case KindTopK:
		res, tr, err := e.doTopK(ctx, req)
		return Response{TopK: res, Trace: tr, Err: err}
	case KindAggregate:
		res, tr, err := e.doAggregate(ctx, req)
		return Response{Agg: res, Trace: tr, Err: err}
	default:
		return Response{Err: fmt.Errorf("core: unknown query kind %d", req.Kind)}
	}
}

// DoBatchWorkers answers a slice of requests on a pool of workers (<= 0
// selects GOMAXPROCS) and returns the responses in request order. The
// context is checked before each request, so cancelling mid-batch fails the
// not-yet-started remainder with ctx.Err() while already-computed answers
// are kept. Duplicate top-k requests — same (dir, entity, rel, k, eps) —
// are coalesced: one descent serves all of them. Cracking writers still
// serialize on the engine lock, so a mixed batch interleaves read-served
// queries with the few that split.
func (e *Engine) DoBatchWorkers(ctx context.Context, reqs []Request, workers int) []Response {
	out := make([]Response, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers == 1 {
		for i := range reqs {
			out[i] = e.Do(ctx, reqs[i])
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				out[i] = e.Do(ctx, reqs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// startTrace returns a live trace when the request opted in or carries
// inbound trace context, and nil otherwise — the nil trace keeps the hot
// path at a single branch.
func (e *Engine) startTrace(req Request) *obs.QueryTrace {
	if req.Trace || !req.TraceID.IsZero() {
		return obs.StartTraceLinked(req.TraceID, req.ParentSpan, req.TraceForced)
	}
	return nil
}

// offerTrace offers the finished trace to the trace store, which keeps it
// when it is forced, failed, slower than the store's slow threshold, or
// head-sampled. desc is built lazily — the common case is a fast query the
// store drops, and then no formatting happens at all.
func (e *Engine) offerTrace(tr *obs.QueryTrace, kind string, err error, desc func() string) {
	if tr == nil {
		return
	}
	status := obs.TraceOK
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		status = obs.TraceCanceled
	case errors.Is(err, context.DeadlineExceeded):
		status = obs.TraceDeadline
	default:
		status = obs.TraceError
	}
	e.traces.Offer(obs.TraceRecord{
		ID:      tr.TraceID(),
		Span:    tr.SpanID(),
		Time:    tr.StartTime(),
		Kind:    kind,
		Status:  status,
		Latency: tr.Wall,
		Trace:   tr,
	}, tr.Forced(), func() string {
		if err != nil {
			return desc() + " err=" + err.Error()
		}
		return desc()
	})
}

// doTopK executes a top-k request through its slot in the result cache,
// with one of three outcomes: a finished slot is a hit, a pending one is
// waited on (the request coalesces onto its leader), and otherwise the
// request leads a new slot and executes.
func (e *Engine) doTopK(ctx context.Context, req Request) (*TopKResult, *obs.QueryTrace, error) {
	eps := req.Eps
	if eps <= 0 {
		eps = e.params.Eps
	}
	if req.NoIndex {
		// The exact scan is the accuracy ground truth; it bypasses both the
		// index and the cache so it can never return an index-shaped answer.
		res, err := e.TopKNoIndex(req.Dir, req.Entity, req.Rel, req.K)
		return res, nil, err
	}
	tr := e.startTrace(req)

	key := topkKey{dir: req.Dir, ent: req.Entity, rel: req.Rel, k: req.K, eps: eps}
	// The slot is in the cache before the query reads the graph, so a write
	// that lands while the query runs, and can change its answer, finds it
	// pending and drops it.
	res, s, lead := e.cache.acquire(key, tr.TraceID())
	tr.Step(obs.StageCache)
	var err error
	switch {
	case res != nil:
		if tr != nil {
			tr.CacheHit = true
		}
	case lead:
		var w walkReach
		res, w, err = e.topKQuery(ctx, req.Dir, req.Entity, req.Rel, req.K, eps, tr)
		e.cache.finish(s, res, w, err)
	default:
		e.met.sfCoalesced.Inc()
		if tr != nil {
			tr.Coalesced = true
			// Link this follower to the execution it shares — the cross-
			// request edge a /traces reader follows to the descent that
			// actually ran.
			tr.LinkLeader(s.leader)
		}
		res, err = e.follow(ctx, s, req, eps, tr)
	}
	if tr != nil {
		tr.Finish()
		e.offerTrace(tr, "topk", err, func() string {
			d := fmt.Sprintf("topk dir=%d ent=%d rel=%d k=%d eps=%g", req.Dir, req.Entity, req.Rel, req.K, eps)
			if tr.CacheHit {
				d += " (cache hit)"
			}
			return d
		})
	}
	return res, tr, err
}

// follow waits for the leader of s to finish, or for ctx to end, and takes
// the leader's answer. A leader that gave up on its own context says
// nothing about this caller's: the follower then answers for itself.
func (e *Engine) follow(ctx context.Context, s *slot, req Request, eps float64, tr *obs.QueryTrace) (*TopKResult, error) {
	var cancel <-chan struct{} // nil: a nil ctx waits for the leader alone
	if ctx != nil {
		cancel = ctx.Done()
	}
	select {
	case <-s.done:
	case <-cancel:
		// A cancelled wait is still a stage of the follower's trace, which
		// is finished and offered like any other: it is exactly the kind
		// of latency outlier the trace store exists to catch.
		tr.Step(obs.StageWait)
		return nil, ctx.Err()
	}
	tr.Step(obs.StageWait)
	if errors.Is(s.err, context.Canceled) || errors.Is(s.err, context.DeadlineExceeded) {
		res, _, err := e.topKQuery(ctx, req.Dir, req.Entity, req.Rel, req.K, eps, tr)
		return res, err
	}
	return s.res, s.err
}

func (e *Engine) doAggregate(ctx context.Context, req Request) (*AggResult, *obs.QueryTrace, error) {
	if req.NoIndex {
		res, err := e.AggregateExact(req.Dir, req.Entity, req.Rel, req.Agg)
		return res, nil, err
	}
	eps := req.Eps
	if eps <= 0 {
		eps = e.params.Eps
	}
	tr := e.startTrace(req)
	res, err := e.aggregateQuery(ctx, req.Dir, req.Entity, req.Rel, req.Agg, eps, tr)
	tr.Finish()
	e.offerTrace(tr, "aggregate", err, func() string {
		return fmt.Sprintf("agg %s dir=%d ent=%d rel=%d eps=%g", req.Agg.Kind, req.Dir, req.Entity, req.Rel, eps)
	})
	return res, tr, err
}
