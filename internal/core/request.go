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
// five method pairs (TopKTails/TopKHeads, AggregateTails/AggregateHeads and
// their NoIndex/Exact variants) can express is one Request value, executed
// by Do or fanned across a worker pool by DoBatch. Serving throughput is
// the system here — the cracking index is built by the workload (Section IV)
// — so the executor coalesces duplicate top-k requests in flight and serves
// repeats of converged regions from the result cache without a tree descent.

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

// inflightCall is one singleflight execution slot: the first goroutine to
// request a top-k key becomes the leader and computes it; duplicates block
// on done (or their own context) and share the leader's answer.
type inflightCall struct {
	done chan struct{}
	// leader is the leader's trace id (zero when the leader ran untraced),
	// published under sfMu before the call is visible so followers can link
	// their traces to the execution they shared.
	leader obs.TraceID
	res    *TopKResult
	err    error
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

// DoBatch answers a slice of requests on a bounded worker pool and returns
// the responses in request order. The context is checked before each
// request, so cancelling mid-batch fails the not-yet-started remainder with
// ctx.Err() while already-computed answers are kept. Duplicate top-k
// requests — same (dir, entity, rel, k, eps) — are coalesced: one descent
// serves all of them.
func (e *Engine) DoBatch(ctx context.Context, reqs []Request) []Response {
	return e.DoBatchWorkers(ctx, reqs, 0)
}

// DoBatchWorkers is DoBatch with an explicit worker count; workers <= 0
// selects GOMAXPROCS. Cracking writers still serialize on the engine lock,
// so a mixed batch interleaves read-served queries with the few that split.
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
	// Keep is deterministic in the record shape, so probing it first means
	// the Detail string is only built for traces that will be retained.
	if !e.traces.Keep(tr.TraceID(), tr.Forced(), status, tr.Wall) {
		return
	}
	detail := desc()
	if err != nil {
		detail += " err=" + err.Error()
	}
	e.traces.Record(obs.TraceRecord{
		ID:      tr.TraceID(),
		Span:    tr.SpanID(),
		Time:    tr.StartTime(),
		Kind:    kind,
		Status:  status,
		Detail:  detail,
		Latency: tr.Wall,
		Trace:   tr,
	})
}

// doTopK executes a top-k request through the cache and the in-flight
// coalescing map.
func (e *Engine) doTopK(ctx context.Context, req Request) (*TopKResult, *obs.QueryTrace, error) {
	eps := req.Eps
	if eps <= 0 {
		eps = e.params.Eps
	}
	if req.NoIndex {
		// The exact scan is the accuracy ground truth; it bypasses both the
		// index and the cache so it can never return an index-shaped answer.
		if req.Dir == DirHead {
			res, err := e.TopKHeadsNoIndex(req.Entity, req.Rel, req.K)
			return res, nil, err
		}
		res, err := e.TopKTailsNoIndex(req.Entity, req.Rel, req.K)
		return res, nil, err
	}
	tr := e.startTrace(req)

	key := topkKey{dir: req.Dir, ent: req.Entity, rel: req.Rel, k: req.K, eps: eps}
	// The generation is read before executing: if a mutation lands while the
	// query runs, the entry is stored under the old generation and the next
	// lookup discards it.
	gen := e.gen.Load()
	if res, ok := e.cache.get(key, gen); ok {
		if tr != nil {
			tr.CacheHit = true
			tr.Step(obs.StageCache)
			tr.Finish()
			e.offerTrace(tr, "topk", nil, func() string {
				return fmt.Sprintf("topk dir=%d ent=%d rel=%d k=%d eps=%g (cache hit)", req.Dir, req.Entity, req.Rel, req.K, eps)
			})
		}
		return res, tr, nil
	}
	tr.Step(obs.StageCache)
	// desc is declared after the cache-hit return so the closure is never
	// allocated on the (microsecond-scale) hit path.
	desc := func() string {
		return fmt.Sprintf("topk dir=%d ent=%d rel=%d k=%d eps=%g", req.Dir, req.Entity, req.Rel, req.K, eps)
	}

	e.sfMu.Lock()
	if c, ok := e.inflight[key]; ok {
		e.sfMu.Unlock()
		e.met.sfCoalesced.Inc()
		if tr != nil {
			tr.Coalesced = true
			// Link this follower to the execution it shares — the cross-
			// request edge a /traces reader follows to the descent that
			// actually ran.
			tr.LinkLeader(c.leader)
		}
		wait := func() (*TopKResult, *obs.QueryTrace, error) {
			tr.Step(obs.StageWait)
			res, err := c.res, c.err
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				// The leader gave up on its own context, which says nothing
				// about this caller's: the follower answers for itself.
				res, err = e.topKQuery(ctx, req.Dir, req.Entity, req.Rel, req.K, eps, tr)
			}
			tr.Finish()
			e.offerTrace(tr, "topk", err, desc)
			return res, tr, err
		}
		if ctx == nil {
			<-c.done
			return wait()
		}
		select {
		case <-c.done:
			return wait()
		case <-ctx.Done():
			// The follower gives up, but its trace must still be finished
			// and offered to the trace store: a cancelled wait is exactly the
			// kind of latency outlier it exists to catch.
			tr.Step(obs.StageWait)
			tr.Finish()
			e.offerTrace(tr, "topk", ctx.Err(), desc)
			return nil, tr, ctx.Err()
		}
	}
	// The leader's trace id is published in the call slot before it becomes
	// visible, so every follower can link to it.
	c := &inflightCall{done: make(chan struct{}), leader: tr.TraceID()}
	e.inflight[key] = c
	e.sfMu.Unlock()

	c.res, c.err = e.topKQuery(ctx, req.Dir, req.Entity, req.Rel, req.K, eps, tr)
	if c.err == nil {
		e.cache.put(key, gen, c.res)
	}
	e.sfMu.Lock()
	delete(e.inflight, key)
	e.sfMu.Unlock()
	close(c.done)
	tr.Finish()
	e.offerTrace(tr, "topk", c.err, desc)
	return c.res, tr, c.err
}

func (e *Engine) doAggregate(ctx context.Context, req Request) (*AggResult, *obs.QueryTrace, error) {
	if req.NoIndex {
		if req.Dir == DirHead {
			res, err := e.AggregateHeadsExact(req.Entity, req.Rel, req.Agg)
			return res, nil, err
		}
		res, err := e.AggregateTailsExact(req.Entity, req.Rel, req.Agg)
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
