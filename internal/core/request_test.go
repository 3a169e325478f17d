package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vkgraph/internal/obs"
)

// TestTraceStoreCountsEveryOffer: every finished trace is offered to the
// store, kept or not, so vkg_trace_records_offered_total counts the fast
// traces the store drops too. With head sampling and slow retention off,
// twenty fast, successful, unforced traces are all offered and none kept.
func TestTraceStoreCountsEveryOffer(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	eng.Traces().SetHeadRate(0)
	eng.Traces().SetSlowThreshold(0)
	likes, _ := g.RelationByName("likes")
	for _, u := range g.EntitiesOfType("user")[:20] {
		resp := eng.Do(context.Background(), Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 5, Trace: true})
		if resp.Err != nil || resp.Trace == nil {
			t.Fatalf("traced Do: err %v, trace %v", resp.Err, resp.Trace)
		}
	}
	if st := eng.Traces().Stats(); st.Offered != 20 || st.Kept != 0 {
		t.Fatalf("Offered %d, Kept %d; want 20 and 0", st.Offered, st.Kept)
	}
}

// TestCancelledFollowerTraced pins the coalescing edge case: a follower that
// gives up on a still-running leader must still finish its trace (so span
// durations sum to Wall) and offer it to the trace store — a cancelled wait
// is exactly the latency outlier the store's tail rule exists to keep.
func TestCancelledFollowerTraced(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	// Park a pending slot whose leader never finishes so the request
	// coalesces onto it, then hand it an already-cancelled context.
	key := topkKey{dir: DirTail, ent: u, rel: likes, k: 5, eps: eng.params.Eps}
	c := parkSlot(t, eng, key, obs.TraceID{})
	defer eng.cache.finish(c, nil, context.Canceled)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, tr, err := eng.doTopK(ctx, Request{Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 5, Trace: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatalf("cancelled follower returned a result: %v", res)
	}
	if tr == nil {
		t.Fatal("no trace returned")
	}
	if tr.Wall <= 0 {
		t.Fatal("trace not finished: Wall is zero")
	}
	if !tr.Coalesced {
		t.Fatal("trace not marked coalesced")
	}
	if len(tr.Spans) == 0 || tr.Spans[len(tr.Spans)-1].Stage != obs.StageWait {
		t.Fatalf("last span %+v, want stage %q", tr.Spans, obs.StageWait)
	}

	found := false
	for _, r := range eng.Traces().Entries() {
		if r.Kind == "topk" && r.Status == obs.TraceCanceled && r.Trace != nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("cancelled follower missing from the trace store: %+v", eng.Traces().Entries())
	}
	if got := eng.Metrics().Coalesced; got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
}

// TestCoalescedFollowerLinksLeader pins the cross-request trace edge: a
// follower that coalesces onto an in-flight leader records the leader's
// trace id, so a /traces reader can walk from the follower to the descent
// that actually ran.
func TestCoalescedFollowerLinksLeader(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	// Park a pending slot with a known leader trace id; once the follower
	// has coalesced onto it, the leader finishes and the follower returns
	// the shared answer.
	leaderID := obs.NewTraceID()
	key := topkKey{dir: DirTail, ent: u, rel: likes, k: 5, eps: eng.params.Eps}
	c := parkSlot(t, eng, key, leaderID)
	var res *TopKResult
	var tr *obs.QueryTrace
	var err error
	followParked(t, eng, c, &TopKResult{}, nil, func() {
		res, tr, err = eng.doTopK(context.Background(), Request{
			Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 5,
			Trace: true, TraceForced: true,
		})
	})
	if err != nil || res != c.res {
		t.Fatalf("follower: res=%v err=%v, want the leader's result", res, err)
	}
	if tr == nil || !tr.Coalesced {
		t.Fatal("follower trace missing or not marked coalesced")
	}
	if tr.LeaderTrace != leaderID {
		t.Fatalf("LeaderTrace = %s, want leader %s", tr.LeaderTrace, leaderID)
	}
	// Forced retention: the follower's record is findable by its own id.
	recs := eng.Traces().Find(tr.TraceID())
	if len(recs) != 1 || recs[0].Trace != tr {
		t.Fatalf("trace store Find(%s) = %v, want the follower's record", tr.TraceID(), recs)
	}
	if recs[0].Trace.LeaderTrace != leaderID {
		t.Fatal("retained record lost the leader link")
	}
}

// TestTraceCrackSpanAndPropagation pins the crack span's anatomy and
// inbound context adoption: the first query on a fresh engine cracks, so
// its trace reports the index write lock's hold time and the structural
// deltas, and a request carrying inbound trace context adopts the id and
// parent span.
func TestTraceCrackSpanAndPropagation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	inboundID := obs.NewTraceID()
	inboundSpan := obs.NewSpanID()
	resp := eng.Do(context.Background(), Request{
		Kind: KindTopK, Dir: DirTail, Entity: u, Rel: likes, K: 5,
		TraceID: inboundID, ParentSpan: inboundSpan, TraceForced: true,
	})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	tr := resp.Trace
	if tr == nil {
		t.Fatal("non-zero inbound TraceID did not activate tracing")
	}
	if tr.TraceID() != inboundID {
		t.Fatalf("trace id %s, want adopted inbound id %s", tr.TraceID(), inboundID)
	}
	if tr.ParentSpan() != inboundSpan {
		t.Fatalf("parent span %x, want inbound span %x", tr.ParentSpan(), inboundSpan)
	}
	if tr.Splits == 0 || tr.NodesCreated == 0 || tr.LockHeld <= 0 {
		t.Fatalf("first query on a fresh engine reports %d splits, %d nodes, lock held %v; want a crack",
			tr.Splits, tr.NodesCreated, tr.LockHeld)
	}
	if m := eng.Metrics(); m.CrackSplits != uint64(tr.Splits) || m.CrackWriteLock.Count != 1 {
		t.Fatalf("metrics count %d splits over %d lock holds, the trace %d over one",
			m.CrackSplits, m.CrackWriteLock.Count, tr.Splits)
	}
	// The forced trace is retained and its /traces/<id> JSON carries the
	// crack anatomy and the inbound parent span.
	recs := eng.Traces().Find(inboundID)
	if len(recs) != 1 {
		t.Fatalf("trace store retained %d records, want 1", len(recs))
	}
	w := httptest.NewRecorder()
	obs.WriteTraceRecords(w, inboundID, recs)
	var doc struct {
		Records []struct {
			Parent string `json:"parent"`
			Stages []struct {
				Stage  string  `json:"stage"`
				HeldMS float64 `json:"held_ms"`
				Splits int     `json:"splits"`
				Nodes  int     `json:"nodes"`
			} `json:"stages"`
		} `json:"records"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil || len(doc.Records) != 1 {
		t.Fatalf("trace JSON: %v\n%s", err, w.Body)
	}
	if got := doc.Records[0].Parent; got != inboundSpan.String() {
		t.Errorf("rendered parent %q, want %s", got, inboundSpan)
	}
	var crack bool
	for _, st := range doc.Records[0].Stages {
		if st.Stage != obs.StageCrack {
			continue
		}
		crack = true
		if st.Splits != tr.Splits || st.Nodes != tr.NodesCreated || st.HeldMS != float64(tr.LockHeld)/float64(time.Millisecond) {
			t.Errorf("rendered crack stage %+v, want splits=%d nodes=%d held=%v", st, tr.Splits, tr.NodesCreated, tr.LockHeld)
		}
	}
	if !crack {
		t.Errorf("rendered trace has no crack stage:\n%s", w.Body)
	}
}

// TestFirstQueryRootBuildBilledToCrack: the first query of a fresh engine
// builds the index root before it validates anything. That time is index
// construction and belongs to the crack span — it must neither inflate
// "validate" nor add a span to the stage list, for a top-k and for an
// aggregate first query alike.
func TestFirstQueryRootBuildBilledToCrack(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindTopK, Dir: DirTail, K: 5, Trace: true},
		{Kind: KindAggregate, Dir: DirTail, Agg: AggQuery{Kind: Avg, Attr: "year"}, Trace: true},
	} {
		eng, g := testEngine(t, Crack, defaultTestParams())
		req.Rel, _ = g.RelationByName("likes")
		req.Entity = g.EntitiesOfType("user")[0]
		resp := eng.Do(context.Background(), req)
		if resp.Err != nil {
			t.Fatal(resp.Err)
		}
		if eng.prepareIndex() {
			t.Fatal("root still missing after the first query")
		}
		spans := map[string]time.Duration{}
		var stages []string
		for _, s := range resp.Trace.Spans {
			stages = append(stages, s.Stage)
			spans[s.Stage] += s.Dur
		}
		want := "cache,validate,transform,search,crack"
		if req.Kind == KindAggregate {
			want = "validate,transform,search,crack,estimate" // aggregates bypass the result cache
		}
		if got := strings.Join(stages, ","); got != want {
			t.Fatalf("kind %v: cold stages = %s, want the warm list %s", req.Kind, got, want)
		}
		if spans[obs.StageValidate] >= spans[obs.StageCrack] {
			t.Fatalf("kind %v: validate %v >= crack %v: the root build was billed to validation",
				req.Kind, spans[obs.StageValidate], spans[obs.StageCrack])
		}
	}
}
