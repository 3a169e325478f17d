package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/rtree"
	"vkgraph/internal/serve"
	"vkgraph/vkg"
)

// The ladder measures the layers below vkg, where spans cannot nest from
// outside: each rung replays the same read operations, one goroutine, on a
// freshly built index, one layer further down than the rung above. A
// layer's self time is its rung minus the next rung down.

// defaultEps is the engine's default query expansion. The rtree rung walks
// each query's final ball, k-th distance x (1+eps); if the product default
// moves, this constant must follow or the rung walks the wrong ball.
const defaultEps = 0.75

// rung is what one replay measured.
type rung struct {
	topkUS, aggUS []float64 // per measured operation
	allocsPerOp   float64   // heap objects per measured operation
	bytesPerOp    float64
	// kth is each top-k operation's k-th distance, warm-up first, for the
	// rtree rung; only the core rung fills it.
	kth []float64
}

// callFunc answers one read operation at a rung's layer and returns the
// k-th distance of a top-k answer (0 when the rung does not need it).
type callFunc func(o op) (kth float64, err error)

// replay runs warm then measured through call, timing the measured
// operations and reading the allocator before and after them.
func replay(warm, measured []op, call callFunc) (*rung, error) {
	r := &rung{
		topkUS: make([]float64, 0, len(measured)), aggUS: make([]float64, 0, len(measured)),
		kth: make([]float64, 0, len(warm)+len(measured)),
	}
	note := func(o op, kth float64) {
		if o.Kind == opTopK {
			r.kth = append(r.kth, kth)
		}
	}
	for _, o := range warm {
		kth, err := call(o)
		if err != nil {
			return nil, err
		}
		note(o, kth)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, o := range measured {
		t0 := time.Now()
		kth, err := call(o)
		took := us(time.Since(t0))
		if err != nil {
			return nil, err
		}
		note(o, kth)
		if o.Kind == opTopK {
			r.topkUS = append(r.topkUS, took)
		} else {
			r.aggUS = append(r.aggUS, took)
		}
	}
	runtime.ReadMemStats(&m1)
	if n := float64(len(measured)); n > 0 {
		r.allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / n
		r.bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	}
	return r, nil
}

// coreRequest lowers a read op to the engine's request type, as vkg does.
func coreRequest(o op) core.Request {
	req := core.Request{Entity: o.Entity, Rel: o.Rel, K: topK}
	if o.Heads {
		req.Dir = core.DirHead
	}
	if o.Kind == opAgg {
		req.Kind, req.K = core.KindAggregate, 0
		req.Agg = core.AggQuery{Kind: core.Avg, Attr: aggAttr, MaxAccess: aggMaxAccess}
	}
	return req
}

// reads keeps the read operations of a list: the ladder replays queries
// only, on an index no write has touched.
func reads(ops []op) []op {
	var out []op
	for _, o := range ops {
		if !o.Kind.isWrite() {
			out = append(out, o)
		}
	}
	return out
}

// uncached keeps the first occurrence of each measured key that the warm-up
// did not already ask: replayed on a fresh index after the same warm-up,
// none of them can be answered from the result cache, so every rung does
// the work of its layer on every operation and rungs can be subtracted.
func uncached(warm, measured []op) []op {
	seen := make(map[op]bool, len(warm)+len(measured))
	for _, o := range warm {
		seen[o] = true
	}
	var out []op
	for _, o := range measured {
		if !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	return out
}

// runLadder fills the layer metrics that come from rungs: it warms a fresh
// index up with the workload's warm-up reads, then replays the measured
// keys the cache cannot answer, once per rung.
func runLadder(out map[string]float64, g benchGraph, warm, measured []op) error {
	warm = reads(warm)
	measured = uncached(warm, reads(measured))
	ctx := context.Background()

	// vkg rung, untraced and with Query.Trace on.
	vkgRung := func(trace bool) (*rung, error) {
		v, err := g.build()
		if err != nil {
			return nil, err
		}
		return replay(warm, measured, func(o op) (float64, error) {
			q := o.query()
			q.Trace = trace
			_, err := v.Do(ctx, q)
			return 0, err
		})
	}
	plain, err := vkgRung(false)
	if err != nil {
		return fmt.Errorf("vkg rung: %w", err)
	}
	traced, err := vkgRung(true)
	if err != nil {
		return fmt.Errorf("traced vkg rung: %w", err)
	}

	// core rung; it also learns every query's final ball.
	v, err := g.build()
	if err != nil {
		return err
	}
	eng := v.Engine()
	coreRung, err := replay(warm, measured, func(o op) (float64, error) {
		resp := eng.Do(ctx, coreRequest(o))
		if resp.Err != nil {
			return 0, resp.Err
		}
		if resp.TopK != nil && len(resp.TopK.Predictions) > 0 {
			return resp.TopK.Predictions[len(resp.TopK.Predictions)-1].Dist, nil
		}
		return 0, nil
	})
	if err != nil {
		return fmt.Errorf("core rung: %w", err)
	}
	// The cache-hit path: the last top-k key again and again, on an index
	// nothing invalidates.
	if hot, ok := lastTopK(measured); ok {
		const hits = 2000
		req := coreRequest(hot)
		t0 := time.Now()
		for i := 0; i < hits; i++ {
			if resp := eng.Do(ctx, req); resp.Err != nil {
				return resp.Err
			}
		}
		out["core.do_cachehit_us"] = us(time.Since(t0)) / hits
	}

	out["vkg.do_topk_us"] = mean(plain.topkUS)
	out["vkg.allocs_per_query"] = plain.allocsPerOp
	out["vkg.self_us"] = pairedDiff(plain.topkUS, coreRung.topkUS)
	out["obs.trace_overhead_us"] = pairedDiff(traced.topkUS, plain.topkUS)
	out["core.do_topk_us"] = mean(coreRung.topkUS)
	out["core.agg_us"] = mean(coreRung.aggUS)
	out["core.allocs_per_query"] = coreRung.allocsPerOp
	out["core.bytes_per_query"] = coreRung.bytesPerOp

	walkUS, err := rtreeRung(out, g, v, warm, measured, coreRung.kth)
	if err != nil {
		return fmt.Errorf("rtree rung: %w", err)
	}
	out["core.self_us"] = pairedDiff(coreRung.topkUS, walkUS)
	return nil
}

// pairedDiff is a layer's self time from two rungs that replayed the same
// operations: the median over operations of upper minus lower, in the
// units of the inputs. The median of pairs shrugs off the stall that hits
// one replay of an operation and not the other; a difference of means does
// not.
func pairedDiff(upper, lower []float64) float64 {
	n := min(len(upper), len(lower))
	diffs := make([]float64, n)
	for i := range diffs {
		diffs[i] = upper[i] - lower[i]
	}
	return median(diffs)
}

func lastTopK(ops []op) (op, bool) {
	for i := len(ops) - 1; i >= 0; i-- {
		if ops[i].Kind == opTopK {
			return ops[i], true
		}
	}
	return op{}, false
}

// rtreeRung builds a standalone cracking tree over the model's S2 points,
// cracks it with every query's final ball in order, then walks the measured
// queries' balls on the converged tree. It ends with the two kernels, and
// returns each measured top-k operation's walk time in microseconds.
func rtreeRung(out map[string]float64, g benchGraph, v *vkg.VKG, warm, measured []op, kth []float64) ([]float64, error) {
	m, tf := g.embedding(), v.Engine().Transform()
	ps := rtree.NewPointSet(tf.OutDim(), tf.ApplyAll(m.Entities))
	ps.EnablePacked()
	tree := rtree.NewCracking(ps, rtree.DefaultOptions())
	var acc rtree.AccessCounters
	tree.SetAccessCounters(&acc)

	type ball struct {
		q1, q2 []float64
		r      float64
	}
	var balls []ball
	for _, o := range append(append([]op(nil), warm...), measured...) {
		if o.Kind != opTopK {
			continue
		}
		if len(balls) == len(kth) {
			return nil, fmt.Errorf("%d k-th distances for more top-k operations", len(kth))
		}
		q1, _ := queryPoint(m, v.Graph(), o)
		balls = append(balls, ball{q1: q1, q2: tf.Apply(q1), r: kth[len(balls)] * (1 + defaultEps)})
	}
	if len(balls) == 0 {
		return nil, nil
	}

	var crack time.Duration
	for i, b := range balls {
		t0 := time.Now()
		tree.Crack(rtree.BallRect(b.q2, b.r))
		d := time.Since(t0)
		crack += d
		if i == 0 {
			out["rtree.crack_first_ms"] = ms(d)
		}
	}
	if s := tree.Stats().BinarySplits; s > 0 {
		out["rtree.crack_us_per_split"] = us(crack) / float64(s)
	}

	// Warm walks: the measured queries only, which come last in balls.
	walked := balls[len(balls)-countTopK(measured):]
	if len(walked) == 0 {
		return nil, nil
	}
	nodes0 := acc.Internal.Load() + acc.Leaf.Load() + acc.Pending.Load()
	trees := []*rtree.Tree{tree}
	visited := make([][]int32, len(walked))
	walkUS := make([]float64, len(walked))
	points := 0
	for i, b := range walked {
		bound := b.r * b.r
		ids := make([]int32, 0, 256)
		t0 := time.Now()
		rtree.WalkTreesWithin(trees, b.q2, func() float64 { return bound }, func(id int32, _ float64) bool {
			ids = append(ids, id)
			return true
		})
		walkUS[i] = us(time.Since(t0))
		visited[i] = ids
		points += len(ids)
	}
	n := float64(len(walked))
	out["rtree.walk_warm_us"] = mean(walkUS)
	out["rtree.walk_points_per_query"] = float64(points) / n
	out["rtree.walk_nodes_per_query"] = float64(acc.Internal.Load()+acc.Leaf.Load()+acc.Pending.Load()-nodes0) / n

	// Kernels: the S2 distance gather over the points each walk visited,
	// and the JL projection of each query point.
	if points > 0 {
		most := 0
		for _, ids := range visited {
			most = max(most, len(ids))
		}
		dists := make([]float64, most)
		t0 := time.Now()
		for i, b := range walked {
			ps.GatherSqDists(visited[i], b.q2, dists[:len(visited[i])])
		}
		out["rtree.gather_ns_per_point"] = float64(time.Since(t0).Nanoseconds()) / float64(points)
	}
	const rounds = 20
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range walked {
			tf.Apply(b.q1)
		}
	}
	out["jl.apply_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(rounds*len(walked))
	return walkUS, nil
}

func countTopK(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.Kind == opTopK {
			n++
		}
	}
	return n
}

// serveRung replays the whole sequence, repeated keys included, through
// Server.Handler() with no sockets: the serve layer and everything under
// it, cache and all, without the wire. It returns the mean over every
// operation, which plus the wire's self time should be what the client saw.
func serveRung(out map[string]float64, g *movieGraph, warm, measured []op) (allUS float64, err error) {
	mg := g
	v, err := g.build()
	if err != nil {
		return 0, err
	}
	srv := serve.NewServer(serve.Config{})
	if err := srv.AddTenant("movie", serve.NewTenant(v, "")); err != nil {
		return 0, err
	}
	h := srv.Handler()
	// Requests and recorders are made before the clock and the allocator
	// are read, so neither counts them.
	type call struct {
		req *http.Request
		rec *httptest.ResponseRecorder
	}
	prepare := func(ops []op) ([]call, error) {
		calls := make([]call, len(ops))
		for i, o := range ops {
			body, err := wireBody(mg.KG, o)
			if err != nil {
				return nil, err
			}
			calls[i] = call{httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)), httptest.NewRecorder()}
		}
		return calls, nil
	}
	calls, err := prepare(append(append([]op(nil), warm...), measured...))
	if err != nil {
		return 0, err
	}
	next := 0
	r, err := replay(warm, measured, func(op) (float64, error) {
		c := calls[next]
		next++
		h.ServeHTTP(c.rec, c.req)
		if c.rec.Code != http.StatusOK {
			return 0, fmt.Errorf("handler answered %d: %s", c.rec.Code, bytes.TrimSpace(c.rec.Body.Bytes()))
		}
		return 0, nil
	})
	if err != nil {
		return 0, err
	}
	out["serve.handler_topk_us"] = mean(r.topkUS)
	out["serve.allocs_per_request"] = r.allocsPerOp
	return mean(append(r.topkUS, r.aggUS...)), srv.Drain(context.Background())
}
