package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"time"

	"vkgraph/internal/obs"
)

// reqCtx is the per-request trace/accounting envelope shared by the query
// and batch handlers: it adopts or mints the request's trace identity,
// echoes the traceparent header on every response (success, 429, 504, 499 —
// the header is set before any handler code can write), and on finish
// observes the request latency, offers the request-envelope record to the
// tenant's trace store, and emits the access-log line.
type reqCtx struct {
	s     *Server
	w     http.ResponseWriter
	r     *http.Request
	kind  string // "query" or "batch"
	start time.Time

	id     obs.TraceID
	span   obs.SpanID
	parent obs.SpanID
	forced bool

	t      *Tenant // resolved tenant (nil until resolution succeeds)
	tenant string  // resolved tenant name

	status    int
	code      string
	admission string // "", "admitted", or "shed"
	errText   string
}

// begin opens the request envelope: the inbound traceparent header is
// adopted when well-formed (its sampled flag forces retention), a fresh
// trace is minted otherwise — malformed headers are silently ignored, per
// the W3C spec — and the outbound Traceparent header is set immediately so
// every response path echoes it.
func (s *Server) begin(w http.ResponseWriter, r *http.Request, kind string) *reqCtx {
	rc := &reqCtx{
		s: s, w: w, r: r, kind: kind, start: time.Now(),
		status: http.StatusOK, code: "ok",
	}
	if id, span, sampled, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		rc.id, rc.parent, rc.forced = id, span, sampled
	} else {
		rc.id = obs.NewTraceID()
	}
	rc.span = obs.NewSpanID()
	rc.setTraceparent()
	return rc
}

func (rc *reqCtx) setTraceparent() {
	rc.w.Header().Set("Traceparent", obs.Traceparent(rc.id, rc.span, rc.forced))
}

// force marks the request's trace for guaranteed retention (a client that
// asked for trace output wants to find it on /traces afterwards) and
// refreshes the echoed header so its sampled flag agrees.
func (rc *reqCtx) force() {
	if rc.forced {
		return
	}
	rc.forced = true
	rc.setTraceparent()
}

// traceparentValue is the header value propagated into engine queries: the
// request span becomes the parent of every query span under it.
func (rc *reqCtx) traceparentValue() string {
	return obs.Traceparent(rc.id, rc.span, rc.forced)
}

// fail records the outcome and answers with the JSON error document
// (carrying the trace id, so a shed or timed-out client can still hand an
// operator the handle into /traces).
func (rc *reqCtx) fail(status int, code string, err error) {
	rc.status, rc.code = status, code
	rc.errText = err.Error()
	rc.s.writeErrorTrace(rc.w, status, code, err, rc.id.String())
}

// traceStatus maps the envelope's HTTP outcome to a trace-store status.
func (rc *reqCtx) traceStatus() string {
	switch rc.code {
	case "ok":
		return obs.TraceOK
	case "overloaded", "draining":
		return obs.TraceShed
	case "deadline_exceeded":
		return obs.TraceDeadline
	case "canceled":
		return obs.TraceCanceled
	default:
		return obs.TraceError
	}
}

// finish closes the envelope: end-to-end latency, the envelope trace record,
// and the access-log line.
// Deferred from the top of each handler so every exit path — shed, 413,
// detached 504, success — is accounted identically.
func (rc *reqCtx) finish() {
	lat := time.Since(rc.start)
	rc.s.met.latency.Observe(lat.Seconds())
	status := rc.traceStatus()
	if rc.t != nil {
		rc.t.Traces.Offer(obs.TraceRecord{
			ID: rc.id, Span: rc.span, Time: rc.start,
			Kind: rc.kind, Tenant: rc.tenant, Status: status,
			Latency: lat,
		}, rc.forced, func() string {
			detail := rc.r.Method + " " + rc.r.URL.Path
			if rc.errText != "" {
				detail += " err=" + rc.errText
			}
			return detail
		})
	}
	rc.s.accessLog(rc, lat)
}

// accessLog emits one structured JSON line per request to Config.AccessLog.
func (s *Server) accessLog(rc *reqCtx, lat time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line := struct {
		Time      string  `json:"time"`
		TraceID   string  `json:"trace_id"`
		Tenant    string  `json:"tenant,omitempty"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Code      string  `json:"code"`
		Admission string  `json:"admission,omitempty"`
		LatencyMS float64 `json:"latency_ms"`
		Error     string  `json:"error,omitempty"`
	}{
		Time:      rc.start.UTC().Format(time.RFC3339Nano),
		TraceID:   rc.id.String(),
		Tenant:    rc.tenant,
		Method:    rc.r.Method,
		Path:      rc.r.URL.Path,
		Status:    rc.status,
		Code:      rc.code,
		Admission: rc.admission,
		LatencyMS: float64(lat) / float64(time.Millisecond),
		Error:     rc.errText,
	}
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.accessMu.Lock()
	_, _ = s.cfg.AccessLog.Write(b)
	s.accessMu.Unlock()
}

// tenantTraces snapshots every tenant's trace store, in sorted name order.
func (s *Server) tenantTraces() (names []string, stores []*obs.TraceStore) {
	all, tenants := s.sortedTenants()
	for i, t := range tenants {
		if t.Traces != nil {
			names = append(names, all[i])
			stores = append(stores, t.Traces)
		}
	}
	return names, stores
}

// handleTraces merges every tenant's trace store:
//
//	GET /traces        JSON list across tenants, newest first
//	GET /traces/<id>   one trace reassembled from every store that retained
//	                   a piece of it (request envelope + engine query spans)
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	names, stores := s.tenantTraces()
	rest := strings.Trim(strings.TrimPrefix(r.URL.Path, "/traces"), "/")
	if rest == "" {
		var recs []obs.TraceRecord
		for i, store := range stores {
			for _, rec := range store.Entries() {
				if rec.Tenant == "" {
					rec.Tenant = names[i]
				}
				recs = append(recs, rec)
			}
		}
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.After(recs[j].Time) })
		obs.WriteTraceList(w, recs)
		return
	}
	id, ok := obs.ParseTraceID(rest)
	if !ok {
		http.Error(w, "malformed trace id "+rest+" (want 32 hex digits)", http.StatusBadRequest)
		return
	}
	var recs []obs.TraceRecord
	for i, store := range stores {
		for _, rec := range store.Find(id) {
			if rec.Tenant == "" {
				rec.Tenant = names[i]
			}
			recs = append(recs, rec)
		}
	}
	obs.WriteTraceRecords(w, id, recs)
}
