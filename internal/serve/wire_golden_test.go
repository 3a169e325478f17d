package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vkgraph/vkg"
)

// cannedBackend answers every query with one fixed result, so the wire
// bytes depend on the serving layer alone.
type cannedBackend struct {
	res *vkg.Result
}

func (b cannedBackend) Do(context.Context, vkg.Query) (*vkg.Result, error) { return b.res, nil }

func (b cannedBackend) DoBatchWorkers(_ context.Context, qs []vkg.Query, _ int) []vkg.Result {
	out := make([]vkg.Result, len(qs))
	for i := range out {
		out[i] = *b.res
	}
	return out
}

// emptyAnswerVKG builds a graph whose only top-k candidates are all known
// tails, so the real engine returns an empty, float-free answer.
func emptyAnswerVKG(t *testing.T) *vkg.VKG {
	t.Helper()
	g := vkg.NewGraph()
	likes := g.AddRelation("likes")
	u := g.AddEntity("u", "user")
	for _, name := range []string{"a", "b"} {
		if err := g.AddTriple(u, likes, g.AddEntity(name, "item")); err != nil {
			t.Fatal(err)
		}
	}
	v, err := vkg.Build(g, vkg.WithSeed(1), vkg.WithEmbedding(vkg.EmbeddingParams{Dim: 4, Epochs: 1}))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWireGolden pins the HTTP/JSON answer shape byte for byte: field names,
// field order, omitted fields, number formatting, and the empty-list form.
// Clients (the benchmark's among them) decode exactly these bytes.
func TestWireGolden(t *testing.T) {
	const (
		inbound = "00-0123456789abcdef0123456789abcdef-0123456789abcdef-01"
		traceID = "0123456789abcdef0123456789abcdef"
	)
	topk := &vkg.Result{TopK: &vkg.TopKResult{
		Predictions: []vkg.Prediction{
			{Entity: 7, Name: "item7", Dist: 0.5, Prob: 1},
			{Entity: 3, Dist: 1.25, Prob: 0.4},
		},
		RecallBound:    0.96875,
		ExpectedMisses: 0.03125,
		Examined:       42,
	}}
	agg := &vkg.Result{Agg: &vkg.AggResult{Value: 31.5, Accessed: 16, BallSize: 40}}
	traced := &vkg.Result{
		TopK: &vkg.TopKResult{Predictions: []vkg.Prediction{{Entity: 1, Name: "a", Dist: 2, Prob: 1}}, RecallBound: 1, Examined: 1},
		Trace: &vkg.QueryTrace{Spans: []vkg.TraceSpan{
			{Stage: "cache", Dur: 1500 * time.Nanosecond},
			{Stage: "search", Start: 1500 * time.Nanosecond, Dur: 2345678 * time.Nanosecond},
		}},
	}
	empty := NewTenant(emptyAnswerVKG(t), "")

	for _, tc := range []struct {
		name   string
		tenant *Tenant
		path   string
		body   string
		status int
		want   string
	}{
		{"topk", &Tenant{Backend: cannedBackend{topk}}, "/v1/query",
			`{"entity_id":0,"relation_id":0,"k":2}`, 200,
			`{"topk":{"predictions":[{"entity":7,"name":"item7","dist":0.5,"prob":1},{"entity":3,"dist":1.25,"prob":0.4}],` +
				`"recall_bound":0.96875,"expected_misses":0.03125,"examined":42},"trace_id":"` + traceID + `"}`},
		{"aggregate", &Tenant{Backend: cannedBackend{agg}}, "/v1/query",
			`{"kind":"aggregate","entity_id":0,"relation_id":0,"agg":{"kind":"avg","attr":"age"}}`, 200,
			`{"agg":{"value":31.5,"accessed":16,"ball_size":40},"trace_id":"` + traceID + `"}`},
		{"traced", &Tenant{Backend: cannedBackend{traced}}, "/v1/query",
			`{"entity_id":0,"relation_id":0,"k":1,"trace":true}`, 200,
			`{"topk":{"predictions":[{"entity":1,"name":"a","dist":2,"prob":1}],"recall_bound":1,"expected_misses":0,"examined":1},` +
				`"trace":[{"stage":"cache","ms":0.001},{"stage":"search","ms":2.345}],"trace_id":"` + traceID + `"}`},
		{"trace not asked for", &Tenant{Backend: cannedBackend{traced}}, "/v1/query",
			`{"entity_id":0,"relation_id":0,"k":1}`, 200,
			`{"topk":{"predictions":[{"entity":1,"name":"a","dist":2,"prob":1}],"recall_bound":1,"expected_misses":0,"examined":1},` +
				`"trace_id":"` + traceID + `"}`},
		{"error", empty, "/v1/query",
			`{"entity":"nobody","relation":"likes","k":3}`, 404,
			`{"trace_id":"` + traceID + `","error":"entity \"nobody\": unknown entity","code":"unknown_entity"}`},
		{"empty answer", empty, "/v1/query",
			`{"entity":"u","relation":"likes","k":3}`, 200,
			`{"topk":{"predictions":[],"recall_bound":1,"expected_misses":0,"examined":0},"trace_id":"` + traceID + `"}`},
		{"batch", empty, "/v1/batch",
			`{"queries":[{"entity":"u","relation":"likes","k":3},{"entity":"nobody","relation":"likes","k":3}]}`, 200,
			`{"results":[{"topk":{"predictions":[],"recall_bound":1,"expected_misses":0,"examined":0},"trace_id":"` + traceID + `"},` +
				`{"trace_id":"` + traceID + `","error":"entity \"nobody\": unknown entity","code":"unknown_entity"}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := NewServer(Config{})
			if err := s.AddTenant("main", tc.tenant); err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			req.Header.Set("traceparent", inbound)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.status, rec.Body)
			}
			if got := rec.Body.String(); got != tc.want+"\n" {
				t.Errorf("wire bytes moved:\n got %s\nwant %s", got, tc.want)
			}
		})
	}
}
