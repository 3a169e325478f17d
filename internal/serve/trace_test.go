package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vkgraph/internal/obs"
	"vkgraph/vkg"
)

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// syncBuffer is a mutex-guarded buffer: the access log is written from the
// handler goroutine after the response is flushed, so the test must both
// lock and poll.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitLine polls until the buffer holds at least one full line.
func (b *syncBuffer) waitLine(t *testing.T) string {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		if s := b.String(); strings.Contains(s, "\n") {
			return s
		}
		if time.Now().After(deadline) {
			t.Fatal("no access-log line within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}

const knownTraceparent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

// traceRec is one record of the /traces/<id> JSON document. Pointer
// fields tell an omitted key from a zero value.
type traceRec struct {
	Kind        string  `json:"kind"`
	Span        string  `json:"span"`
	Parent      *string `json:"parent"`
	LeaderTrace string  `json:"leader_trace"`
	CacheHit    *bool   `json:"cache_hit"`
	Coalesced   *bool   `json:"coalesced"`
	Stages      []struct {
		Stage      string   `json:"stage"`
		LockWaitMS *float64 `json:"lock_wait_ms"`
		HeldMS     *float64 `json:"held_ms"`
		Splits     *int     `json:"splits"`
		Nodes      *int     `json:"nodes"`
	} `json:"stages"`
}

type traceDoc struct {
	TraceID string     `json:"trace_id"`
	Records []traceRec `json:"records"`
}

// getTrace fetches /traces/<id> and decodes it; the page must be JSON.
func getTrace(t *testing.T, base, id string) traceDoc {
	t.Helper()
	resp, err := http.Get(base + "/traces/" + id)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces/%s answered %d: %s", id, resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/traces/%s Content-Type %q, want application/json", id, ct)
	}
	var doc traceDoc
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("/traces/%s is not JSON: %v\n%s", id, err, out)
	}
	if doc.TraceID != id {
		t.Errorf("trace_id %q, want %s", doc.TraceID, id)
	}
	return doc
}

// requestRecords picks out of doc the envelope record of the request that
// resp answered (its span is the one the Traceparent header echoes) and the
// engine query record under it. Other requests may share the trace id.
func requestRecords(t *testing.T, doc traceDoc, resp *http.Response) (env, q traceRec) {
	t.Helper()
	_, span, _, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatal("response has no Traceparent header")
	}
	var foundEnv, foundQ bool
	for _, r := range doc.Records {
		if r.Span == span.String() {
			env, foundEnv = r, true
		}
		if r.Parent != nil && *r.Parent == span.String() {
			q, foundQ = r, true
		}
	}
	if !foundEnv || !foundQ {
		t.Fatalf("trace %s lacks the envelope of span %s or its query record: %+v", doc.TraceID, span, doc.Records)
	}
	return env, q
}

// checkCrackStage asserts a query record's crack stage carries its four
// index-write facts.
func checkCrackStage(t *testing.T, q traceRec) {
	t.Helper()
	for _, st := range q.Stages {
		if st.Stage != obs.StageCrack {
			continue
		}
		if st.LockWaitMS == nil || st.HeldMS == nil || st.Splits == nil || st.Nodes == nil {
			t.Errorf("crack stage missing lock_wait_ms/held_ms/splits/nodes: %+v", st)
		}
		return
	}
	t.Errorf("%s record has no crack stage: %+v", q.Kind, q.Stages)
}

// postTraced posts a query body with an optional inbound traceparent and
// returns the response, its parsed body, and the echoed traceparent fields.
func postTraced(t *testing.T, url, inbound string, body interface{}) (*http.Response, wireResult, obs.TraceID, bool) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if inbound != "" {
		req.Header.Set("traceparent", inbound)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res wireResult
	_ = json.NewDecoder(resp.Body).Decode(&res)

	echo := resp.Header.Get("Traceparent")
	if echo == "" {
		t.Fatalf("response (status %d) missing Traceparent header", resp.StatusCode)
	}
	id, _, sampled, ok := obs.ParseTraceparent(echo)
	if !ok {
		t.Fatalf("echoed traceparent %q is malformed", echo)
	}
	return resp, res, id, sampled
}

// TestTraceparentEchoSuccess pins W3C propagation on the happy path: a
// known inbound traceparent is adopted (same trace id, sampled flag
// honored, fresh span), and the response body carries the same trace id.
func TestTraceparentEchoSuccess(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v.ResetCache() // the topk record must run the engine, crack stage included
	resp, res, id, sampled := postTraced(t, ts.URL+"/v1/query", knownTraceparent, idQuery(3))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	const wantID = "4bf92f3577b34da6a3ce929d0e0e4736"
	if id.String() != wantID {
		t.Fatalf("echoed trace id %s, want adopted inbound %s", id, wantID)
	}
	if !sampled {
		t.Error("sampled inbound flag not echoed")
	}
	if res.TraceID != wantID {
		t.Errorf("body trace_id %q, want %q", res.TraceID, wantID)
	}
	// The sampled flag forces retention: the trace must be on /traces/<id>,
	// reassembled from the request envelope and the engine's query record,
	// whose parent is the envelope's span.
	env, q := requestRecords(t, getTrace(t, ts.URL, wantID), resp)
	if env.Kind != "query" || q.Kind != "topk" {
		t.Errorf("record kinds %q and %q, want query and topk", env.Kind, q.Kind)
	}
	if env.Parent != nil || env.CacheHit != nil || env.Coalesced != nil || env.Stages != nil {
		t.Errorf("envelope record carries query fields: %+v", env)
	}
	if q.CacheHit == nil || *q.CacheHit || q.Coalesced == nil || *q.Coalesced {
		t.Errorf("uncached topk record: cache_hit %v coalesced %v, want both present and false", q.CacheHit, q.Coalesced)
	}
	checkCrackStage(t, q)
	// The client did not set trace:true, so no span breakdown leaks into
	// the response body.
	if res.Trace != nil {
		t.Errorf("span breakdown leaked to a client that did not ask: %v", res.Trace)
	}
}

// TestTraceparentMalformedIgnored: a garbage inbound header is silently
// dropped and a fresh, valid trace is minted and echoed.
func TestTraceparentMalformedIgnored(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, bad := range []string{
		"not-a-traceparent",
		"00-ZZZZ2f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	} {
		resp, res, id, sampled := postTraced(t, ts.URL+"/v1/query", bad, idQuery(3))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		if id.IsZero() {
			t.Fatal("fresh trace id is zero")
		}
		if strings.Contains(bad, id.String()) || sampled {
			t.Errorf("malformed inbound %q leaked into echo (id %s sampled %v)", bad, id, sampled)
		}
		if res.TraceID != id.String() {
			t.Errorf("body trace_id %q disagrees with header %s", res.TraceID, id)
		}
	}
}

// TestTraceparentOnShed pins the refusal paths: 429 and 504 responses echo
// the traceparent, carry trace_id in the JSON error body, and the shed /
// deadline envelopes are tail-retained in the trace store.
func TestTraceparentOnShed(t *testing.T) {
	b := newBlockingBackend()
	s := NewServer(Config{
		MaxInFlight: 1, QueueDepth: 0, QueueWait: time.Millisecond,
		DefaultTimeout: 50 * time.Millisecond, MaxTimeout: 60 * time.Millisecond,
		TraceHeadRate: -1, // head sampling off: retention below is pure tail policy
	})
	store := obs.NewTraceStore(32)
	if err := s.AddTenant("t", &Tenant{Backend: b, Traces: store}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park one request in the only slot; it will 504 at DefaultTimeout.
	type slow struct {
		res wireResult
		id  obs.TraceID
	}
	first := make(chan slow, 1)
	go func() {
		_, res, id, _ := postTraced(t, ts.URL+"/v1/query", "", idQuery(3))
		first <- slow{res, id}
	}()

	// Wait for it to occupy the slot, then overflow.
	deadline := time.Now().Add(time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	resp, res, shedID, _ := postTraced(t, ts.URL+"/v1/query", "", idQuery(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if res.Code != "overloaded" {
		t.Errorf("code %q, want overloaded", res.Code)
	}
	if res.TraceID != shedID.String() {
		t.Fatalf("429 body trace_id %q, want header id %s", res.TraceID, shedID)
	}

	sl := <-first
	if sl.res.Code != "deadline_exceeded" {
		t.Fatalf("parked request code %q, want deadline_exceeded", sl.res.Code)
	}
	if sl.res.TraceID != sl.id.String() {
		t.Fatalf("504 body trace_id %q, want header id %s", sl.res.TraceID, sl.id)
	}

	// Both refusals are latency outliers by definition; the tail policy
	// keeps them even with head sampling disabled.
	if recs := store.Find(shedID); len(recs) != 1 || recs[0].Status != obs.TraceShed {
		t.Errorf("shed envelope not tail-retained: %+v", recs)
	}
	if recs := store.Find(sl.id); len(recs) == 0 || recs[0].Status != obs.TraceDeadline {
		t.Errorf("deadline envelope not tail-retained: %+v", recs)
	}
	st := store.Stats()
	if st.KeptTail < 2 {
		t.Errorf("KeptTail = %d, want >= 2", st.KeptTail)
	}

	close(b.release)
}

// TestAccessLog pins the structured access-log line: one JSON object per
// request with the trace id, tenant, outcome, and latency.
func TestAccessLog(t *testing.T) {
	v, _ := testVKG(t)
	var buf syncBuffer
	s := NewServer(Config{AccessLog: &buf})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, _, id, _ := postTraced(t, ts.URL+"/v1/query", knownTraceparent, idQuery(3))

	// One line, valid JSON, with the fields an operator greps for.
	lines := strings.Split(strings.TrimSpace(buf.waitLine(t)), "\n")
	if len(lines) != 1 {
		t.Fatalf("access log has %d lines, want 1: %q", len(lines), buf.String())
	}
	var line struct {
		Time      string  `json:"time"`
		TraceID   string  `json:"trace_id"`
		Tenant    string  `json:"tenant"`
		Method    string  `json:"method"`
		Path      string  `json:"path"`
		Status    int     `json:"status"`
		Code      string  `json:"code"`
		Admission string  `json:"admission"`
		LatencyMS float64 `json:"latency_ms"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &line); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, lines[0])
	}
	if line.TraceID != id.String() {
		t.Errorf("trace_id %q, want %s", line.TraceID, id)
	}
	if line.Tenant != "main" || line.Method != "POST" || line.Path != "/v1/query" {
		t.Errorf("line routing fields = %+v", line)
	}
	if line.Status != 200 || line.Code != "ok" || line.Admission != "admitted" {
		t.Errorf("line outcome fields = %+v", line)
	}
	if line.LatencyMS <= 0 {
		t.Errorf("latency_ms = %v, want > 0", line.LatencyMS)
	}
	if _, err := time.Parse(time.RFC3339Nano, line.Time); err != nil {
		t.Errorf("time %q is not RFC3339Nano: %v", line.Time, err)
	}
}

// TestServeTracesEndpoint pins the merged /traces view across tenants and
// the /traces/<id> JSON record: parent only when non-zero, the crack
// stage's index-write facts, cache hit, coalesced and the leader link.
func TestServeTracesEndpoint(t *testing.T) {
	v, rel := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	v.ResetCache()
	body := idQuery(3)
	body["trace"] = true // explicit trace request forces retention
	resp, res, id, sampled := postTraced(t, ts.URL+"/v1/query", "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !sampled {
		t.Error("trace:true did not set the sampled flag on the echoed header")
	}
	if res.Trace == nil {
		t.Error("trace:true returned no span breakdown")
	}

	lresp, err := http.Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	list := readAll(t, lresp)
	if !strings.Contains(list, id.String()) {
		t.Fatalf("/traces list missing %s:\n%s", id, list)
	}
	var parsed struct {
		Traces []struct {
			TraceID string `json:"trace_id"`
			Tenant  string `json:"tenant"`
			Link    string `json:"link"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(list), &parsed); err != nil {
		t.Fatalf("/traces is not JSON: %v", err)
	}
	found := false
	for _, e := range parsed.Traces {
		if e.TraceID == id.String() {
			found = true
			if e.Tenant != "main" {
				t.Errorf("list entry tenant %q, want main", e.Tenant)
			}
			if e.Link != "/traces/"+id.String() {
				t.Errorf("list entry link %q", e.Link)
			}
		}
	}
	if !found {
		t.Fatal("trace id absent from parsed list")
	}

	if _, q := requestRecords(t, getTrace(t, ts.URL, id.String()), resp); q.Kind != "topk" {
		t.Errorf("query record kind %q, want topk", q.Kind)
	} else {
		checkCrackStage(t, q)
	}

	// A root query run in process has no parent span, so its record has no
	// parent key; the same query again is a cache hit.
	v.SetTraceSlowThreshold(time.Nanosecond) // Query.Trace is not forced: the slow rule keeps it
	defer v.SetTraceSlowThreshold(obs.DefaultTraceSlow)
	root, err := v.Do(context.Background(), vkg.Query{Entity: 0, Relation: rel, K: 3, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	doc := getTrace(t, ts.URL, root.Trace.TraceID().String())
	if len(doc.Records) != 1 || doc.Records[0].Kind != "topk" {
		t.Fatalf("root trace records = %+v, want one topk record", doc.Records)
	}
	if r := doc.Records[0]; r.Parent != nil {
		t.Errorf("root record parent = %q, want the key omitted", *r.Parent)
	} else if r.CacheHit == nil || !*r.CacheHit || r.Coalesced == nil || *r.Coalesced {
		t.Errorf("repeated query: cache_hit %v coalesced %v, want true and false", r.CacheHit, r.Coalesced)
	}

	// A coalesced follower names the trace of the execution it shared.
	leader := obs.NewTraceID()
	follower := obs.StartTraceLinked(obs.TraceID{}, obs.SpanID{}, true)
	follower.Coalesced = true
	follower.LinkLeader(leader)
	follower.Step(obs.StageWait)
	follower.Finish()
	v.Engine().Traces().Offer(obs.TraceRecord{
		ID: follower.TraceID(), Span: follower.SpanID(), Time: follower.StartTime(),
		Kind: "topk", Status: obs.TraceOK, Latency: follower.Wall, Trace: follower,
	}, follower.Forced(), nil)
	doc = getTrace(t, ts.URL, follower.TraceID().String())
	if r := doc.Records[0]; r.Coalesced == nil || !*r.Coalesced || r.LeaderTrace != leader.String() {
		t.Errorf("follower record coalesced %v leader_trace %q, want true and %s", r.Coalesced, r.LeaderTrace, leader)
	}

	if r404, err := http.Get(ts.URL + "/traces/" + strings.Repeat("ab", 16)); err != nil {
		t.Fatal(err)
	} else if readAll(t, r404); r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown id answered %d, want 404", r404.StatusCode)
	}
	if r400, err := http.Get(ts.URL + "/traces/zzz"); err != nil {
		t.Fatal(err)
	} else if readAll(t, r400); r400.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed id answered %d, want 400", r400.StatusCode)
	}
}

// TestBatchTraceparent: the batch envelope is one trace; every per-query
// result carries its id, and any trace:true member forces retention.
func TestBatchTraceparent(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, _ := json.Marshal(map[string]interface{}{
		"queries": []map[string]interface{}{
			{"entity_id": 0, "relation_id": 0, "k": 3, "trace": true},
			{"entity_id": 1, "relation_id": 0, "k": 3},
			{"entity_id": 0, "relation_id": 99, "k": 3}, // fails: unknown relation id is fine, engine errors in place
		},
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/batch", bytes.NewReader(buf))
	req.Header.Set("traceparent", knownTraceparent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	echo := resp.Header.Get("Traceparent")
	id, _, _, ok := obs.ParseTraceparent(echo)
	if !ok || id.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("batch echo %q, want adopted inbound id", echo)
	}
	var br wireBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	if len(br.Results) != 3 {
		t.Fatalf("%d results, want 3", len(br.Results))
	}
	for i, r := range br.Results {
		if r.TraceID != id.String() {
			t.Errorf("result %d trace_id %q, want batch trace %s", i, r.TraceID, id)
		}
	}
	if br.Results[0].Trace == nil {
		t.Error("trace:true member lost its span breakdown")
	}
	if br.Results[1].Trace != nil {
		t.Error("untraced member leaked a span breakdown")
	}
}
