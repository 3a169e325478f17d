package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"vkgraph/internal/obs"
	"vkgraph/vkg"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// whose client cancelled before the answer was ready.
const StatusClientClosedRequest = 499

// Handler returns the serving mux:
//
//	POST /v1/query   one query (JSON; see wire.go)
//	POST /v1/batch   a batch sharing one admission slot and deadline
//	GET  /healthz    liveness: 200 while the process runs, drain included
//	GET  /readyz     readiness: 200 until drain starts, then 503
//	GET  /metrics    serving counters + every tenant registry (tenant label),
//	                 Prometheus 0.0.4 text only
//	GET  /traces     retained traces across tenants, JSON (/traces/<id> for
//	                 one); slow queries are the ones kept under Config.TraceSlow
//	GET  /tenants    tenant names, JSON
//	GET  /debug/pprof/ the standard pprof handlers
//
// Both query endpoints speak W3C Trace Context: a well-formed inbound
// `traceparent` header is adopted (its sampled flag forces trace
// retention), and every response — success, 429, 504, 499 alike — echoes a
// `Traceparent` header naming the request's trace.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.Draining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/traces", s.handleTraces)
	mux.HandleFunc("/traces/", s.handleTraces)
	mux.HandleFunc("/tenants", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(s.Tenants())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// timeout clamps the client-requested deadline to the server's bounds.
func (s *Server) timeout(ms int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// classify maps an error to its HTTP status and machine-readable code.
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, vkg.ErrOverloaded):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, context.DeadlineExceeded):
		// Matches both the engine's raw context error and anything
		// wrapping vkg.ErrDeadlineExceeded (see vkg/errors.go).
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, vkg.ErrUnknownEntity):
		return http.StatusNotFound, "unknown_entity"
	case errors.Is(err, vkg.ErrUnknownRelation):
		return http.StatusNotFound, "unknown_relation"
	case errors.Is(err, vkg.ErrUnknownAttribute):
		return http.StatusNotFound, "unknown_attribute"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeErrorTrace answers with a JSON error document carrying the request's
// trace id — shed (429) and timed-out (504) answers carry the handle into
// /traces, so the client can report exactly which request was refused. 429s
// and 503s carry a Retry-After hint: shed clients should back off, not
// hammer.
func (s *Server) writeErrorTrace(w http.ResponseWriter, status int, code string, err error, traceID string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wireResult{Error: err.Error(), Code: code, TraceID: traceID})
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		StatusClientClosedRequest, http.StatusGatewayTimeout:
	default:
		if status >= 500 {
			s.met.errors.Inc()
		}
	}
}

// decodeBody decodes a bounded JSON body, distinguishing oversized bodies
// (413) from malformed ones (400).
func (s *Server) decodeBody(rc *reqCtx, dst interface{}) bool {
	rc.r.Body = http.MaxBytesReader(rc.w, rc.r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(rc.r.Body).Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			rc.fail(http.StatusRequestEntityTooLarge, "body_too_large",
				fmt.Errorf("serve: request body exceeds %d bytes", tooBig.Limit))
			return false
		}
		rc.fail(http.StatusBadRequest, "bad_request", fmt.Errorf("serve: decoding request: %w", err))
		return false
	}
	return true
}

// admit runs the pre-execution gauntlet shared by query and batch: method
// check happened already; this checks drain state and admission control.
// On success the caller owns one slot (released by the execution
// goroutine, not the handler).
func (s *Server) admit(rc *reqCtx) bool {
	if s.Draining() {
		s.met.shedDrain.Inc()
		rc.admission = "shed"
		rc.fail(http.StatusServiceUnavailable, "draining",
			fmt.Errorf("serve: draining: %w", vkg.ErrOverloaded))
		return false
	}
	if err := s.adm.acquire(rc.r.Context()); err != nil {
		rc.admission = "shed"
		status, code := classify(err)
		rc.fail(status, code, err)
		return false
	}
	rc.admission = "admitted"
	return true
}

// run executes fn (one engine call) on its own goroutine under a deadline
// and waits for either the result or the deadline. If the deadline (or the
// client) fires first the handler detaches: it answers immediately while
// the goroutine keeps the admission slot until the engine call actually
// returns, so MaxInFlight bounds real engine work, not just live handlers.
// The returned bool reports whether results arrived in time.
func run[T any](s *Server, ctx context.Context, fn func(context.Context) T) (T, bool) {
	done := make(chan T, 1) // buffered: a detached run must not leak its goroutine
	s.busy.Add(1)
	go func() {
		defer s.busy.Add(-1)
		v := fn(ctx)
		// The slot goes back before the result is handed over, so a client
		// holding its answer never scrapes its own request as in flight.
		s.adm.release()
		done <- v
	}()
	select {
	case v := <-done:
		return v, true
	case <-ctx.Done():
		s.met.detached.Inc()
		var zero T
		return zero, false
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	rc := s.begin(w, r, "query")
	defer rc.finish()
	if r.Method != http.MethodPost {
		rc.fail(http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("serve: %s %s: POST only", r.Method, r.URL.Path))
		return
	}

	var req wireRequest
	if !s.decodeBody(rc, &req) {
		return
	}
	t, name, err := s.tenant(tenantName(r, req.Tenant))
	if err != nil {
		rc.fail(http.StatusNotFound, "unknown_tenant", err)
		return
	}
	rc.t, rc.tenant = t, name
	s.countRequest(tenantName(r, req.Tenant))
	if req.Trace {
		// A client that asked for trace output wants to find the trace
		// retained afterwards.
		rc.force()
	}
	q, err := toQuery(req.wireQuery, t.Resolver)
	if err != nil {
		status, code := http.StatusBadRequest, "bad_request"
		if st, c := classify(err); st == http.StatusNotFound {
			status, code = st, c
		}
		rc.fail(status, code, err)
		return
	}
	// Propagate the request's trace context into the engine: the query's
	// span hangs under the request span, sharing the trace id.
	q.TraceParent = rc.traceparentValue()

	d := s.timeout(req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	if !s.admit(rc) {
		return
	}

	type answer struct {
		res *vkg.Result
		err error
	}
	a, ok := run(s, ctx, func(ctx context.Context) answer {
		res, err := t.Backend.Do(ctx, q)
		return answer{res, err}
	})
	if !ok {
		s.answerDetached(rc, ctx, d)
		return
	}
	if a.err != nil {
		status, code := classify(a.err)
		if code == "internal" {
			status, code = http.StatusBadRequest, "bad_request"
		}
		if code == "deadline_exceeded" {
			s.met.deadline.Inc()
			a.err = fmt.Errorf("serve: %v deadline: %w", d, vkg.ErrDeadlineExceeded)
		}
		rc.fail(status, code, a.err)
		return
	}
	wr := fromResult(a.res, req.Trace)
	wr.TraceID = rc.id.String()
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(wr)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	rc := s.begin(w, r, "batch")
	defer rc.finish()
	if r.Method != http.MethodPost {
		rc.fail(http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("serve: %s %s: POST only", r.Method, r.URL.Path))
		return
	}

	var req wireBatchRequest
	if !s.decodeBody(rc, &req) {
		return
	}
	if len(req.Queries) == 0 {
		rc.fail(http.StatusBadRequest, "bad_request", errors.New("serve: empty batch"))
		return
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		rc.fail(http.StatusBadRequest, "batch_too_large",
			fmt.Errorf("serve: batch of %d exceeds the %d-query limit", len(req.Queries), s.cfg.MaxBatch))
		return
	}
	t, name, err := s.tenant(tenantName(r, req.Tenant))
	if err != nil {
		rc.fail(http.StatusNotFound, "unknown_tenant", err)
		return
	}
	rc.t, rc.tenant = t, name
	s.countRequest(tenantName(r, req.Tenant))

	// Lower every wire query first; per-query failures land in place and
	// only the valid remainder reaches the engine (mirrors vkg.DoBatch).
	// Every lowered query carries the batch's trace context: the batch
	// request is one parent span, each query a child span under it.
	results := make([]wireResult, len(req.Queries))
	idxs := make([]int, 0, len(req.Queries))
	qs := make([]vkg.Query, 0, len(req.Queries))
	for _, wq := range req.Queries {
		if wq.Trace {
			rc.force()
			break
		}
	}
	for i, wq := range req.Queries {
		q, err := toQuery(wq, t.Resolver)
		if err != nil {
			code := "bad_request"
			if _, c := classify(err); c != "internal" {
				code = c
			}
			results[i] = wireResult{Error: err.Error(), Code: code, TraceID: rc.id.String()}
			continue
		}
		q.TraceParent = rc.traceparentValue()
		idxs = append(idxs, i)
		qs = append(qs, q)
	}

	d := s.timeout(req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), d)
	defer cancel()
	if len(qs) > 0 {
		if !s.admit(rc) {
			return
		}
		batch, ok := run(s, ctx, func(ctx context.Context) []vkg.Result {
			return t.Backend.DoBatchWorkers(ctx, qs, s.cfg.BatchWorkers)
		})
		if !ok {
			s.answerDetached(rc, ctx, d)
			return
		}
		for j, res := range batch {
			if res.Err != nil {
				_, code := classify(res.Err)
				if code == "internal" {
					code = "bad_request"
				}
				if code == "deadline_exceeded" {
					s.met.deadline.Inc()
				}
				results[idxs[j]] = wireResult{Error: res.Err.Error(), Code: code, TraceID: rc.id.String()}
				continue
			}
			wr := fromResult(&res, req.Queries[idxs[j]].Trace)
			if res.Trace != nil {
				wr.TraceID = res.Trace.TraceID().String()
			}
			results[idxs[j]] = wr
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(wireBatchResponse{Results: results})
}

// answerDetached reports a run whose deadline or client fired before the
// engine call returned: 504 wrapping vkg.ErrDeadlineExceeded, or 499 when
// the client cancelled first.
func (s *Server) answerDetached(rc *reqCtx, ctx context.Context, d time.Duration) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.met.deadline.Inc()
		rc.fail(http.StatusGatewayTimeout, "deadline_exceeded",
			fmt.Errorf("serve: query exceeded its %v deadline: %w", d, vkg.ErrDeadlineExceeded))
		return
	}
	rc.fail(StatusClientClosedRequest, "canceled",
		fmt.Errorf("serve: client closed request: %w", ctx.Err()))
}

// tenantName picks the tenant from the query string (?tenant=) or the
// request body field, URL winning.
func tenantName(r *http.Request, bodyName string) string {
	if n := r.URL.Query().Get("tenant"); n != "" {
		return n
	}
	return bodyName
}

func (s *Server) countRequest(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if name == "" && len(s.requests) == 1 {
		for _, c := range s.requests {
			c.Inc()
		}
		return
	}
	if c, ok := s.requests[name]; ok {
		c.Inc()
	}
}

// handleMetrics renders one Prometheus 0.0.4 page, whatever the Accept
// header asks for: the serving registry first, then every tenant's engine
// registry stamped tenant="name", HELP/TYPE headers deduplicated across
// registries.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	seen := make(map[string]bool)
	_ = s.met.reg.WritePrometheusLabeled(w, seen)
	// Names and tenants come from one locked snapshot: a tenant added
	// between two separate reads would have a name but no entry.
	names, tenants := s.sortedTenants()
	for i, t := range tenants {
		if t.Registry == nil {
			continue
		}
		_ = t.Registry.WritePrometheusLabeled(w, seen, obs.Label{Key: "tenant", Value: names[i]})
	}
}
