package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vkgraph/vkg"
)

// --- shared fixtures ---

var (
	vkgOnce sync.Once
	vkgInst *vkg.VKG
	vkgRel  vkg.RelationID
	vkgErr  error
)

// testVKG builds one small real engine shared by every test in the
// package; TransE training is the expensive part and identical everywhere.
func testVKG(t *testing.T) (*vkg.VKG, vkg.RelationID) {
	t.Helper()
	vkgOnce.Do(func() {
		g := vkg.NewGraph()
		likes := g.AddRelation("likes")
		rng := rand.New(rand.NewSource(7))
		var items []vkg.EntityID
		for i := 0; i < 30; i++ {
			items = append(items, g.AddEntity(fmt.Sprintf("item%d", i), "item"))
		}
		for i := 0; i < 40; i++ {
			u := g.AddEntity(fmt.Sprintf("user%d", i), "user")
			g.SetAttr("age", u, float64(20+rng.Intn(40)))
			style := i % 4
			for j := 0; j < 5; j++ {
				if err := g.AddTriple(u, likes, items[(style+4*j)%len(items)]); err != nil {
					vkgErr = err
					return
				}
			}
		}
		vkgRel = likes
		vkgInst, vkgErr = vkg.Build(g,
			vkg.WithSeed(7),
			vkg.WithEmbedding(vkg.EmbeddingParams{Dim: 8, Epochs: 6}),
			vkg.WithAttributes("age"))
	})
	if vkgErr != nil {
		t.Fatalf("building test VKG: %v", vkgErr)
	}
	return vkgInst, vkgRel
}

// blockingBackend parks every Do until released (or its ctx fires) and
// tracks peak concurrency — the instrument behind the saturation tests.
type blockingBackend struct {
	release chan struct{}
	cur     atomic.Int64
	peak    atomic.Int64
	calls   atomic.Int64
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{release: make(chan struct{})}
}

func (b *blockingBackend) track() func() {
	b.calls.Add(1)
	cur := b.cur.Add(1)
	for {
		p := b.peak.Load()
		if cur <= p || b.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	return func() { b.cur.Add(-1) }
}

func (b *blockingBackend) Do(ctx context.Context, q vkg.Query) (*vkg.Result, error) {
	defer b.track()()
	select {
	case <-b.release:
		return &vkg.Result{TopK: &vkg.TopKResult{}}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingBackend) DoBatchWorkers(ctx context.Context, qs []vkg.Query, workers int) []vkg.Result {
	defer b.track()()
	out := make([]vkg.Result, len(qs))
	select {
	case <-b.release:
		for i := range out {
			out[i] = vkg.Result{TopK: &vkg.TopKResult{}}
		}
	case <-ctx.Done():
		for i := range out {
			out[i] = vkg.Result{Err: ctx.Err()}
		}
	}
	return out
}

func postJSON(t *testing.T, client *http.Client, url string, body interface{}) (*http.Response, wireResult) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil && err != io.EOF {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, res
}

// idQuery is the minimal id-addressed top-k request body.
func idQuery(k int) map[string]interface{} {
	return map[string]interface{}{"entity_id": 0, "relation_id": 0, "k": k}
}

// --- tests ---

// TestAdmissionSaturation is the issue's saturation criterion: with
// in-flight bound B and more than B concurrent slow queries, exactly B
// execute, excess requests answer 429 with Retry-After, and the backend
// never sees more than B concurrent calls.
func TestAdmissionSaturation(t *testing.T) {
	const B = 2
	b := newBlockingBackend()
	s := NewServer(Config{MaxInFlight: B, QueueDepth: 1, QueueWait: 80 * time.Millisecond})
	if err := s.AddTenant("t", &Tenant{Backend: b}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 8
	type outcome struct {
		status     int
		code       string
		retryAfter string
	}
	results := make(chan outcome, clients)
	for i := 0; i < clients; i++ {
		go func() {
			resp, res := postJSON(t, ts.Client(), ts.URL+"/v1/query", idQuery(3))
			results <- outcome{resp.StatusCode, res.Code, resp.Header.Get("Retry-After")}
		}()
	}

	// 6 of 8 must shed (2 in flight, at most 1 briefly queued, everyone
	// else immediately); collect the 429s before releasing the blocked two.
	var shed int
	for shed < clients-B {
		o := <-results
		if o.status != http.StatusTooManyRequests {
			t.Fatalf("unexpected status %d (code %q) during saturation", o.status, o.code)
		}
		if o.code != "overloaded" {
			t.Errorf("shed response code = %q, want overloaded", o.code)
		}
		if o.retryAfter == "" {
			t.Error("429 without Retry-After header")
		}
		shed++
	}
	close(b.release)
	for i := 0; i < B; i++ {
		if o := <-results; o.status != http.StatusOK {
			t.Fatalf("admitted request answered %d (code %q)", o.status, o.code)
		}
	}

	if peak := b.peak.Load(); peak > B {
		t.Errorf("backend peak concurrency %d exceeds in-flight bound %d", peak, B)
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("in-flight gauge %d after all requests finished, want 0", got)
	}
	if got := b.calls.Load(); got != B {
		t.Errorf("backend saw %d calls, want %d (shed requests must not reach the engine)", got, B)
	}
	if a := s.met.admitted.Value(); a != B {
		t.Errorf("admitted counter %d, want %d", a, B)
	}
	if sf := s.met.shedFull.Value() + s.met.shedWait.Value(); sf != clients-B {
		t.Errorf("shed counters total %d, want %d", sf, clients-B)
	}
}

// TestDeadline: a query slower than its deadline answers 504 with the
// deadline code, and the admission slot is returned once the engine call
// finishes even though the handler detached.
func TestDeadline(t *testing.T) {
	b := newBlockingBackend() // never released: every Do blocks until ctx fires
	s := NewServer(Config{MaxInFlight: 2, DefaultTimeout: 40 * time.Millisecond, MaxTimeout: 60 * time.Millisecond})
	if err := s.AddTenant("t", &Tenant{Backend: b}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, res := postJSON(t, ts.Client(), ts.URL+"/v1/query", idQuery(3))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if res.Code != "deadline_exceeded" {
		t.Errorf("code %q, want deadline_exceeded", res.Code)
	}
	if !strings.Contains(res.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", res.Error)
	}

	// The client-requested timeout is clamped to MaxTimeout: asking for 10s
	// must still answer within ~MaxTimeout, not 10s.
	body := idQuery(3)
	body["timeout_ms"] = 10000
	resp2, res2 := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
	if resp2.StatusCode != http.StatusGatewayTimeout || res2.Code != "deadline_exceeded" {
		t.Fatalf("clamped timeout: status %d code %q, want 504 deadline_exceeded", resp2.StatusCode, res2.Code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("two deadline-bounded requests took %v; clamping is not working", elapsed)
	}

	// The backend honors ctx, so both slots drain shortly after.
	deadline := time.Now().Add(time.Second)
	for s.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gauge stuck at %d after deadline-exceeded requests", s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
	if d := s.met.deadline.Value(); d != 2 {
		t.Errorf("deadline counter %d, want 2", d)
	}
}

// TestQueryEndToEnd exercises the wire format against a real engine: top-k
// by name and by id, heads direction, aggregates, traces, and the error
// codes for unknown names, tenants, and malformed queries.
func TestQueryEndToEnd(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/query"

	resp, res := postJSON(t, ts.Client(), url, map[string]interface{}{
		"entity": "user1", "relation": "likes", "k": 5,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("top-k by name: status %d, error %q", resp.StatusCode, res.Error)
	}
	if res.TopK == nil || len(res.TopK.Predictions) != 5 {
		t.Fatalf("top-k by name: got %+v", res.TopK)
	}
	if res.TopK.Predictions[0].Name == "" {
		t.Error("predictions missing names")
	}

	resp, res = postJSON(t, ts.Client(), url, map[string]interface{}{
		"kind": "aggregate", "dir": "heads", "entity": "item0", "relation": "likes",
		"agg": map[string]interface{}{"kind": "avg", "attr": "age", "max_access": 16},
	})
	if resp.StatusCode != http.StatusOK || res.Agg == nil {
		t.Fatalf("aggregate: status %d, res %+v (error %q)", resp.StatusCode, res, res.Error)
	}

	resp, res = postJSON(t, ts.Client(), url, map[string]interface{}{
		"entity": "user1", "relation": "likes", "k": 3, "trace": true,
	})
	if resp.StatusCode != http.StatusOK || len(res.Trace) == 0 {
		t.Errorf("trace: status %d, %d spans, want stage breakdown", resp.StatusCode, len(res.Trace))
	}

	for _, tc := range []struct {
		name   string
		body   map[string]interface{}
		status int
		code   string
	}{
		{"unknown entity name", map[string]interface{}{"entity": "nobody", "relation": "likes", "k": 3}, 404, "unknown_entity"},
		{"unknown relation name", map[string]interface{}{"entity": "user1", "relation": "hates", "k": 3}, 404, "unknown_relation"},
		{"missing k", map[string]interface{}{"entity": "user1", "relation": "likes"}, 400, "bad_request"},
		{"bad kind", map[string]interface{}{"kind": "mystery", "entity": "user1", "relation": "likes", "k": 3}, 400, "bad_request"},
		{"unknown tenant", map[string]interface{}{"tenant": "ghost", "entity": "user1", "relation": "likes", "k": 3}, 404, "unknown_tenant"},
	} {
		resp, res := postJSON(t, ts.Client(), url, tc.body)
		if resp.StatusCode != tc.status || res.Code != tc.code {
			t.Errorf("%s: status %d code %q, want %d %q (error %q)",
				tc.name, resp.StatusCode, res.Code, tc.status, tc.code, res.Error)
		}
	}
}

// TestBatchEndToEnd: per-query failures land in place, valid queries still
// answer, and order is preserved.
func TestBatchEndToEnd(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{MaxBatch: 8})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	buf, _ := json.Marshal(map[string]interface{}{
		"queries": []map[string]interface{}{
			{"entity": "user1", "relation": "likes", "k": 4},
			{"entity": "nobody", "relation": "likes", "k": 4},
			{"kind": "aggregate", "entity": "user2", "relation": "likes",
				"agg": map[string]interface{}{"kind": "count"}},
		},
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out wireBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].TopK == nil || len(out.Results[0].TopK.Predictions) != 4 {
		t.Errorf("result 0: %+v", out.Results[0])
	}
	if out.Results[1].Code != "unknown_entity" {
		t.Errorf("result 1 code %q, want unknown_entity", out.Results[1].Code)
	}
	if out.Results[2].Agg == nil {
		t.Errorf("result 2: %+v (error %q)", out.Results[2], out.Results[2].Error)
	}

	// A batch over the limit is rejected outright.
	big := make([]map[string]interface{}, 9)
	for i := range big {
		big[i] = idQuery(2)
	}
	resp2, res2 := postJSON(t, ts.Client(), ts.URL+"/v1/batch", map[string]interface{}{"queries": big})
	if resp2.StatusCode != http.StatusBadRequest || res2.Code != "batch_too_large" {
		t.Errorf("oversized batch: status %d code %q", resp2.StatusCode, res2.Code)
	}
}

// TestOversizedBody: bodies over MaxBodyBytes answer 413 without touching
// admission control.
func TestOversizedBody(t *testing.T) {
	s := NewServer(Config{MaxBodyBytes: 256})
	if err := s.AddTenant("t", &Tenant{Backend: newBlockingBackend()}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := map[string]interface{}{"entity": strings.Repeat("x", 4096), "relation_id": 0, "k": 3}
	resp, res := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge || res.Code != "body_too_large" {
		t.Fatalf("status %d code %q, want 413 body_too_large", resp.StatusCode, res.Code)
	}
	if s.met.admitted.Value() != 0 {
		t.Error("oversized body consumed an admission slot")
	}
}

// TestMetricsPage: the combined exposition carries the serving counters,
// per-tenant request counters, and each tenant's engine families stamped
// with the tenant label — without duplicate HELP headers.
func TestMetricsPage(t *testing.T) {
	v, rel := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("movie", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	// Two tenants sharing one engine: label separation still works.
	if err := s.AddTenant("mirror", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	amy, _ := v.Graph().EntityByName("user1")
	if _, err := v.Do(context.Background(), vkg.Query{Entity: amy, Relation: rel, K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, res := postJSON(t, ts.Client(), ts.URL+"/v1/query?tenant=movie", idQuery(3)); res.Code != "" {
		t.Fatalf("query failed: %v", res.Error)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	page, _ := io.ReadAll(resp.Body)
	out := string(page)
	for _, want := range []string{
		"vkg_serve_admitted_total 1",
		`vkg_serve_requests_total{tenant="movie"} 1`,
		`vkg_serve_requests_total{tenant="mirror"} 0`,
		`vkg_serve_shed_total{reason="queue_full"} 0`,
		"vkg_serve_inflight 0",
		`tenant="movie"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics page missing %q", want)
		}
	}
	if !strings.Contains(out, `vkg_queries_total{kind="topk",tenant="movie"}`) {
		t.Error("engine families are not stamped with the tenant label")
	}
	// The memory-layout gauge rides the same labeled path.
	if want := `vkg_mem_resident_points{tenant="movie"}`; !strings.Contains(out, want) {
		t.Errorf("metrics page missing memory gauge %q", want)
	}
	if n := strings.Count(out, "# HELP vkg_queries_total"); n != 1 {
		t.Errorf("HELP header for vkg_queries_total appears %d times, want 1", n)
	}

	// There is one exposition: a client asking for OpenMetrics gets the
	// same 0.0.4 page, with no # EOF terminator.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text")
	resp2, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	page2, _ := io.ReadAll(resp2.Body)
	if ct := resp2.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("OpenMetrics Accept got Content-Type %q, want the 0.0.4 page", ct)
	}
	if strings.Contains(string(page2), "# EOF") || !strings.Contains(string(page2), "# TYPE vkg_queries_total counter") {
		t.Errorf("OpenMetrics Accept got a different page:\n%s", page2)
	}
}

// engineFamiliesRuns counts TestMetricsPageEngineFamilies runs in this
// process.
var engineFamiliesRuns atomic.Int64

// TestMetricsPageEngineFamilies: one engine served as the only tenant, as
// vkg-query -metrics-addr serves it, exposes every cost family of the
// engine on /metrics, stamped with the tenant label, and counts an
// embedded query that never went through the HTTP path.
func TestMetricsPageEngineFamilies(t *testing.T) {
	v, rel := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("default", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	scrape := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		return readAll(t, resp)
	}
	// The test engine is shared across tests, so the topk count is read
	// before and after one embedded query, on an entity no other test asks
	// about so that the result cache cannot answer it. k differs on every
	// run, so a repeat under -count cannot be answered from the cache either.
	const topk = `vkg_queries_total{kind="topk",tenant="default"} `
	topkCount := func(out string) int {
		for _, line := range strings.Split(out, "\n") {
			if rest, ok := strings.CutPrefix(line, topk); ok {
				n, err := strconv.Atoi(rest)
				if err != nil {
					t.Fatalf("topk count %q: %v", line, err)
				}
				return n
			}
		}
		return 0
	}
	before := topkCount(scrape())
	u, _ := v.Graph().EntityByName("user37")
	k := 3 + int(engineFamiliesRuns.Add(1))
	if _, err := v.Do(context.Background(), vkg.Query{Entity: u, Relation: rel, K: k}); err != nil {
		t.Fatal(err)
	}
	out := scrape()
	hasSeries := func(family string) bool {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, family+"{") && strings.Contains(line, `tenant="default"`) {
				return true
			}
		}
		return false
	}
	for _, family := range []string{
		"vkg_queries_total",
		"vkg_query_latency_seconds_bucket",
		"vkg_cache_hits_total",
		"vkg_cache_misses_total",
		"vkg_singleflight_coalesced_total",
		"vkg_crack_splits_total",
		"vkg_index_node_accesses_total",
		"vkg_index_nodes",
	} {
		if !hasSeries(family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if after := topkCount(out); after != before+1 {
		t.Errorf("topk count went %d -> %d over one query, want +1", before, after)
	}
}

// TestOpsPageRoutes: the serving mux is the one ops page. /metrics answers
// in the 0.0.4 text format by default, the standard profilers are mounted,
// and the endpoints of the deleted single-engine page (/slowlog,
// /debug/vars) and unknown paths answer 404.
func TestOpsPageRoutes(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("default", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp, readAll(t, resp)
	}

	resp, _ := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics: status %d, Content-Type %q, want 200 and the 0.0.4 text format", resp.StatusCode, ct)
	}
	if resp, body := get("/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: status %d, body %q", resp.StatusCode, body)
	}
	if resp, body := get("/debug/pprof/"); resp.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: status %d, no profile index", resp.StatusCode)
	}
	for _, path := range []string{"/slowlog", "/debug/vars", "/nope"} {
		if resp, _ := get(path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestBareTenantOpsPage: a tenant with neither a Registry nor a trace store
// still gets a working ops page — /metrics renders the serving registry
// alone, /traces an empty list, and /traces/<id> a 404.
func TestBareTenantOpsPage(t *testing.T) {
	s := NewServer(Config{})
	if err := s.AddTenant("bare", &Tenant{Backend: newBlockingBackend()}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `vkg_serve_requests_total{tenant="bare"} 0`) {
		t.Fatalf("/metrics: status %d\n%s", resp.StatusCode, body)
	}
	if strings.Contains(body, "vkg_queries_total") {
		t.Errorf("/metrics rendered engine families for a tenant without a registry:\n%s", body)
	}

	resp, err = ts.Client().Get(ts.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	var list struct {
		Traces []struct{} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces: status %d, %v\n%s", resp.StatusCode, err, body)
	}
	if list.Traces == nil || len(list.Traces) != 0 {
		t.Errorf("/traces = %s, want an empty list", body)
	}

	resp, err = ts.Client().Get(ts.URL + "/traces/" + strings.Repeat("ab", 16))
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, resp); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/traces/<id> answered %d, want 404", resp.StatusCode)
	}
}

// TestMetricsScrapeDuringAddTenant: tenants registered while /metrics is
// being scraped never break the page. Every scrape must answer 200; the
// page once read the tenant names and the tenant map under two separate
// locks, so a tenant added in between was rendered from a nil entry. The
// handler runs in process, so scrapes are many and a panic is reported
// instead of being swallowed by the HTTP server.
func TestMetricsScrapeDuringAddTenant(t *testing.T) {
	s := NewServer(Config{})
	h := s.Handler()
	scrape := func() (status int) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("scrape panicked: %v", p)
				status = http.StatusInternalServerError
			}
		}()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Code
	}

	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	var scrapes atomic.Int64
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if status := scrape(); status != http.StatusOK {
					t.Errorf("scrape answered %d", status)
					return
				}
				scrapes.Add(1)
			}
		}()
	}
	// Start adding once scrapes are flowing, then add back to back so the
	// adder contends for the server lock while pages render.
	for deadline := time.Now().Add(5 * time.Second); scrapes.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	for i := 0; i < 2000; i++ {
		if err := s.AddTenant(fmt.Sprintf("t%04d", i), &Tenant{Backend: newBlockingBackend()}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scrapers.Wait()
}

// TestDrain: readiness flips, in-flight requests finish, post-drain
// requests shed with 503, and the tenant snapshot lands on disk loadable.
func TestDrain(t *testing.T) {
	v, _ := testVKG(t)
	snap := filepath.Join(t.TempDir(), "drained.vkg")
	s := NewServer(Config{MaxInFlight: 4, DrainTimeout: 5 * time.Second})
	if err := s.AddTenant("main", NewTenant(v, snap)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if resp, err := ts.Client().Get(ts.URL + "/readyz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz before drain: %v status %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// Keep a slow-ish stream of real queries going while drain starts.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := map[string]interface{}{"entity": fmt.Sprintf("user%d", i), "relation": "likes", "k": 3}
			resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/query", body)
			if resp.StatusCode != 200 && resp.StatusCode != 503 {
				t.Errorf("in-flight query during drain answered %d", resp.StatusCode)
			}
		}(i)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	if !s.Draining() {
		t.Error("Draining() false after drain")
	}
	if got := s.InFlight(); got != 0 {
		t.Errorf("in-flight %d after drain", got)
	}

	// Readiness fails, liveness holds, new work sheds with Retry-After.
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after drain: %d, want 503", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("healthz after drain: %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	buf, _ := json.Marshal(idQuery(3))
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(buf)))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Errorf("post-drain query: status %d Retry-After %q, want 503 with hint", rec.Code, rec.Header().Get("Retry-After"))
	}

	// Drain snapshotted through the atomic save path; the file loads.
	loaded, err := vkg.LoadFile(snap)
	if err != nil {
		t.Fatalf("loading drain snapshot: %v", err)
	}
	if loaded.Graph().NumEntities() != v.Graph().NumEntities() {
		t.Errorf("snapshot entities %d, want %d", loaded.Graph().NumEntities(), v.Graph().NumEntities())
	}

	// Drain is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Errorf("second drain: %v", err)
	}
	if err := s.AddTenant("late", &Tenant{Backend: newBlockingBackend()}); err == nil {
		t.Error("AddTenant after drain should fail")
	}
}

// TestDrainBudget: a drain whose in-flight work outlives the budget
// reports the deadline error instead of hanging.
func TestDrainBudget(t *testing.T) {
	b := newBlockingBackend() // never released
	s := NewServer(Config{MaxInFlight: 1, DefaultTimeout: 10 * time.Second,
		MaxTimeout: 10 * time.Second, DrainTimeout: 60 * time.Millisecond})
	if err := s.AddTenant("t", &Tenant{Backend: b}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	go func() {
		// Raw Post, not postJSON: this request outlives the test body and
		// must not touch t after the test returns.
		buf, _ := json.Marshal(idQuery(3))
		resp, err := ts.Client().Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(buf))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for b.cur.Load() == 0 {
		time.Sleep(time.Millisecond)
	}

	err := s.Drain(context.Background())
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with stuck query: err %v, want deadline", err)
	}
	close(b.release)
}

// TestServeListener: the Serve loop accepts real connections and Drain
// shuts its listener down.
func TestServeListener(t *testing.T) {
	v, _ := testVKG(t)
	s := NewServer(Config{})
	if err := s.AddTenant("main", NewTenant(v, "")); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String()
	resp, res := postJSON(t, http.DefaultClient, url+"/v1/query", map[string]interface{}{
		"entity": "user3", "relation": "likes", "k": 3,
	})
	if resp.StatusCode != 200 || res.TopK == nil {
		t.Fatalf("query over real listener: status %d error %q", resp.StatusCode, res.Error)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
}
