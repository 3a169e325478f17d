package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// Stage names used by the engine's query trace. The stages of one query are
// contiguous — each Step closes the segment since the previous mark — so
// their durations sum to the traced wall time (Carry moves a segment's time
// into a later span without changing the sum). "search" is the whole index
// walk: the S2-ordered descent together with the exact S1 distance of every
// candidate it yields (Algorithm 3 lines 2-8 run as one merged pass); for
// aggregates it is the ball collection plus the sampled S1 accesses.
const (
	StageCache     = "cache"     // result-cache lookup
	StageValidate  = "validate"  // read-lock acquisition + id validation
	StageTransform = "transform" // query-point construction + JL projection
	StageSearch    = "search"    // index walk + S1 re-rank (see above)
	StageCrack     = "crack"     // index cracking (index write lock) or warm no-op
	StageEstimate  = "estimate"  // aggregate estimation after the crack step
	StageWait      = "wait"      // blocked on a coalesced in-flight execution
)

// Span is one timed stage of a query; Stage is one of the Stage* constants.
type Span struct {
	Stage string
	// Start is the offset from the beginning of the query.
	Start time.Duration
	Dur   time.Duration
}

// MarshalJSON renders the span in the query API's wire form: the stage name
// and its duration in milliseconds at microsecond resolution.
func (s Span) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Stage string  `json:"stage"`
		MS    float64 `json:"ms"`
	}{s.Stage, float64(s.Dur.Microseconds()) / 1000})
}

// QueryTrace is an opt-in per-query breakdown: where the time went, stage
// by stage, plus the cost counters the paper's analysis is stated in (node
// accesses under Lemma 3 terms, candidates examined, bound-pruned
// refinements). A nil *QueryTrace is valid and every method is a no-op on
// it, so instrumented code calls unconditionally.
//
// A trace is one node of a request tree: it carries a 128-bit trace id
// shared by every span of the request (minted fresh, or adopted from an
// inbound traceparent header), its own span id, and the parent span it hangs
// under (the HTTP request span, or a batch request's span). A coalesced
// follower links the leader trace that actually executed the descent via
// LeaderTrace.
type QueryTrace struct {
	start time.Time
	mark  time.Time

	// carry is time set aside by Carry for the next span of carryStage.
	carry      time.Duration
	carryStage string

	id     TraceID
	span   SpanID
	parent SpanID
	forced bool

	// Spans are the timed stages in execution order.
	Spans []Span
	// LeaderTrace links a coalesced follower to the trace of the in-flight
	// execution it shared; zero otherwise. The leader may belong to a
	// different request entirely — that cross-request edge is the point.
	LeaderTrace TraceID
	// Wall is the total traced duration (set by Finish).
	Wall time.Duration

	// CacheHit marks a query answered from the result cache.
	CacheHit bool
	// Coalesced marks a query that shared another in-flight execution.
	Coalesced bool

	// Examined counts candidates whose S1 distance was computed.
	Examined int
	// PrunedByBound counts candidates abandoned early because their partial
	// S1 distance already exceeded the current kth bound.
	PrunedByBound int
	// Splits is the number of binary splits this query's cracking step
	// performed (0 for a warm region).
	Splits int
	// NodesCreated is the number of index nodes the cracking step created.
	NodesCreated int
	// LockWait is the cracking step's wait for the index write lock and
	// LockHeld the time it held it to crack (both 0 for a warm region).
	LockWait, LockHeld time.Duration
	// Accessed/BallSize report the sampled and total ball sizes of an
	// aggregate query (a and b of Theorem 4).
	Accessed, BallSize int
}

// StartTrace begins a trace at the current time with a freshly minted trace
// id and span id.
func StartTrace() *QueryTrace {
	return StartTraceLinked(TraceID{}, SpanID{}, false)
}

// StartTraceLinked begins a trace that joins an existing request tree: id is
// adopted as the trace id (a zero id mints a fresh one), parent becomes the
// new span's parent, and forced marks the trace for guaranteed retention in
// a TraceStore (set for explicitly requested traces and sampled inbound
// traceparents). The span id is always minted fresh.
func StartTraceLinked(id TraceID, parent SpanID, forced bool) *QueryTrace {
	now := time.Now()
	if id.IsZero() {
		id = NewTraceID()
	}
	return &QueryTrace{start: now, mark: now, id: id, span: NewSpanID(), parent: parent, forced: forced}
}

// TraceID returns the trace's 128-bit id (zero on a nil trace).
func (t *QueryTrace) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// SpanID returns the trace's own span id (zero on a nil trace).
func (t *QueryTrace) SpanID() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.span
}

// ParentSpan returns the parent span id (zero for a root or nil trace).
func (t *QueryTrace) ParentSpan() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.parent
}

// Forced reports whether the trace was marked for guaranteed retention.
func (t *QueryTrace) Forced() bool {
	if t == nil {
		return false
	}
	return t.forced
}

// StartTime returns when the trace began (zero on a nil trace) — the query
// start time a trace record is stamped with.
func (t *QueryTrace) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// LinkLeader records the trace id of the in-flight execution a coalesced
// follower shared. No-op on a nil trace or a zero leader.
func (t *QueryTrace) LinkLeader(leader TraceID) {
	if t == nil || leader.IsZero() {
		return
	}
	t.LeaderTrace = leader
}

// Step closes the current segment under the given stage name and starts the
// next one. No-op on a nil trace.
func (t *QueryTrace) Step(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	dur := now.Sub(t.mark)
	if stage == t.carryStage {
		dur += t.carry
		t.carry, t.carryStage = 0, ""
	}
	t.Spans = append(t.Spans, Span{Stage: stage, Start: t.mark.Sub(t.start), Dur: dur})
	t.mark = now
}

// Carry closes the current segment like Step, but instead of recording a
// span of its own it adds the time to the next span recorded under stage:
// for work that has to run early and belongs to a later stage. The engine
// bills the first query's root build this way — index construction done
// ahead of validation, reported under "crack". The stage list keeps its
// shape and the durations still sum to the wall time; that one span is
// longer than the interval it starts. No-op on a nil trace.
func (t *QueryTrace) Carry(stage string) {
	if t == nil {
		return
	}
	now := time.Now()
	t.carry, t.carryStage = t.carry+now.Sub(t.mark), stage
	t.mark = now
}

// Finish stamps the total wall time. No-op on a nil trace.
func (t *QueryTrace) Finish() {
	if t == nil {
		return
	}
	t.Wall = time.Since(t.start)
}

// String renders a one-line stage breakdown, e.g.
// "1.2ms (cache 10µs, validate 1µs, transform 8µs, search 1.1ms, crack 80µs)".
func (t *QueryTrace) String() string {
	if t == nil {
		return "<no trace>"
	}
	parts := make([]string, 0, len(t.Spans))
	for _, s := range t.Spans {
		parts = append(parts, fmt.Sprintf("%s %v", s.Stage, s.Dur.Round(time.Microsecond)))
	}
	return fmt.Sprintf("%v (%s)", t.Wall.Round(time.Microsecond), strings.Join(parts, ", "))
}
