package vkg

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestMetricsEndToEnd drives real queries through the request API and checks
// the counters tell a consistent story: executions + cache hits account for
// every call, cracking activity matches the index stats, and the latency
// histogram saw every execution.
func TestMetricsEndToEnd(t *testing.T) {
	g, ratesHigh, frequents := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var queries []Query
	for i := EntityID(0); i < 20; i++ {
		u, ok := g.EntityByName("user" + itoa(int(i)))
		if !ok {
			t.Fatalf("user%d missing", i)
		}
		queries = append(queries, Query{Entity: u, Relation: ratesHigh, K: 5})
	}
	for i, res := range v.DoBatchWorkers(ctx, queries, 4) {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
	}
	// Repeat the whole batch: an unchanged graph serves every repeat from
	// the cache or coalesces it onto an in-flight execution.
	for i, res := range v.DoBatchWorkers(ctx, queries, 4) {
		if res.Err != nil {
			t.Fatalf("repeat query %d: %v", i, res.Err)
		}
	}

	m := v.Metrics()
	if m.TopKQueries == 0 || m.TopKQueries > 20 {
		t.Errorf("TopKQueries = %d, want in (0, 20]", m.TopKQueries)
	}
	total := m.TopKQueries + m.Cache.Hits + m.Coalesced
	if total != 40 {
		t.Errorf("executions(%d) + hits(%d) + coalesced(%d) = %d, want 40",
			m.TopKQueries, m.Cache.Hits, m.Coalesced, total)
	}
	if m.TopKLatency.Count != m.TopKQueries {
		t.Errorf("latency count %d != executed queries %d", m.TopKLatency.Count, m.TopKQueries)
	}
	if m.TopKLatency.P95 <= 0 || m.TopKLatency.Mean <= 0 {
		t.Errorf("latency snapshot empty: %+v", m.TopKLatency)
	}
	if m.CandidatesExamined == 0 {
		t.Error("CandidatesExamined = 0 after 20 distinct queries")
	}
	if m.NodeAccessInternal+m.NodeAccessLeaf+m.NodeAccessPending == 0 {
		t.Error("no node accesses recorded")
	}
	if m.CrackQueries+m.WarmQueries != m.TopKQueries {
		t.Errorf("cold(%d) + warm(%d) != executed(%d)",
			m.CrackQueries, m.WarmQueries, m.TopKQueries)
	}
	if int(m.CrackSplits) != m.Index.BinarySplits {
		t.Errorf("CrackSplits %d != IndexStats.BinarySplits %d", m.CrackSplits, m.Index.BinarySplits)
	}
	if m.QueryErrors != 0 {
		t.Errorf("QueryErrors = %d, want 0", m.QueryErrors)
	}

	// Errors are counted, not just returned.
	if _, err := v.TopKTails(9999, ratesHigh, 5); err == nil {
		t.Fatal("expected an error for an unknown entity")
	}
	if got := v.Metrics().QueryErrors; got != 1 {
		t.Errorf("QueryErrors = %d after one bad query, want 1", got)
	}

	// Aggregates feed their own counters.
	u0, _ := g.EntityByName("user0")
	if _, err := v.AggregateTails(u0, frequents, AggSpec{Kind: Count}); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	m = v.Metrics()
	if m.AggregateQueries != 1 {
		t.Errorf("AggregateQueries = %d, want 1", m.AggregateQueries)
	}
	if m.AggBallPoints == 0 {
		t.Error("AggBallPoints = 0 after a count aggregate")
	}

	// ResetCache zeroes the cache counters but not the query counters.
	v.ResetCache()
	m = v.Metrics()
	if m.Cache.Hits != 0 || m.Cache.Misses != 0 || m.Cache.Entries != 0 {
		t.Errorf("cache counters after ResetCache: %+v", m.Cache)
	}
	if m.TopKQueries == 0 {
		t.Error("TopKQueries was reset by ResetCache")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestQueryTrace checks the opt-in stage breakdown: the expected stages in
// order, contiguous spans summing to the wall time, and the cost counters.
func TestQueryTrace(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	u0, _ := g.EntityByName("user0")

	res, err := v.Do(context.Background(), Query{Entity: u0, Relation: ratesHigh, K: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Trace requested but Result.Trace is nil")
	}
	if tr.CacheHit {
		t.Error("first query reported a cache hit")
	}
	var stages []string
	var sum time.Duration
	for _, s := range tr.Spans {
		stages = append(stages, s.Stage)
		sum += s.Dur
	}
	want := []string{"cache", "validate", "transform", "search", "crack"}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Errorf("stages = %v, want %v", stages, want)
	}
	if tr.Wall <= 0 || sum > tr.Wall {
		t.Errorf("wall %v, span sum %v", tr.Wall, sum)
	}
	if slack := tr.Wall - sum; slack > 10*time.Millisecond {
		t.Errorf("untraced slack %v too large (wall %v, sum %v)", slack, tr.Wall, sum)
	}
	if tr.Examined == 0 {
		t.Error("trace reports 0 candidates examined")
	}

	// The repeat is a cache hit and says so.
	res, err = v.Do(context.Background(), Query{Entity: u0, Relation: ratesHigh, K: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil || !res.Trace.CacheHit {
		t.Fatalf("repeat trace = %+v, want CacheHit", res.Trace)
	}

	// Without Trace, no trace is allocated.
	res, err = v.Do(context.Background(), Query{Entity: u0, Relation: ratesHigh, K: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced query returned a trace")
	}
}

// TestTraceSlowThreshold pins the one slow-query record: under a 1ns slow
// threshold, a traced query is kept by the trace store's slow rule, and the
// kept record carries the query's stage spans.
func TestTraceSlowThreshold(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	v.SetTraceSlowThreshold(time.Nanosecond)
	u0, _ := g.EntityByName("user0")
	res, err := v.Do(context.Background(), Query{Entity: u0, Relation: ratesHigh, K: 5, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if st := v.eng.Traces().Stats(); st.KeptSlow != 1 || st.Kept != 1 {
		t.Fatalf("trace store stats = %+v, want exactly one record kept as slow", st)
	}
	recs := v.eng.Traces().Find(res.Trace.TraceID())
	if len(recs) != 1 || recs[0].Kind != "topk" || !strings.HasPrefix(recs[0].Detail, "topk ") {
		t.Fatalf("retained records = %+v, want one topk record", recs)
	}
	if recs[0].Trace == nil || len(recs[0].Trace.Spans) == 0 {
		t.Errorf("slow record missing its stage spans: %+v", recs[0].Trace)
	}
}
