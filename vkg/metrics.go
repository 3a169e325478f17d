package vkg

import (
	"time"

	"vkgraph/internal/core"
	"vkgraph/internal/obs"
)

// LatencyStats summarizes a latency distribution: the observation count and
// the mean/median/tail durations.
type LatencyStats = obs.LatencyStats

// Metrics is a structured point-in-time view of every engine counter: query
// volumes and latency distributions, the paper's cost counters (node
// accesses of Lemma 3, candidates examined, a and b of Theorem 4), the
// cracking activity of Section IV, and the serving-layer cache/coalescing/
// lock statistics; CacheHitRate() derives hits / (hits + misses). Counters
// accumulate from Build; LatencyStats percentiles are over all observations
// so far.
type Metrics = core.Metrics

// Metrics captures the current engine counters. It is race-clean under
// concurrent queries but not an instantaneous cut: counters are read one
// atomic load at a time.
func (v *VKG) Metrics() Metrics { return v.eng.Metrics() }

// ResetCache drops every cached top-k answer and zeroes the cache hit/miss
// counters. Benchmarks use it to separate cold-index from warm-cache
// throughput.
func (v *VKG) ResetCache() { v.eng.ResetCache() }

// TraceSpan is one timed stage of a traced query: Stage is one of "cache",
// "validate", "transform", "search", "crack", "estimate", "wait"; Start is
// the offset from the beginning of the query.
type TraceSpan = obs.Span

// QueryTrace is the per-query breakdown returned when Query.Trace is set:
// where the time went, stage by stage, plus the cost counters the paper's
// analysis is stated in. Stages are contiguous, so span durations sum to
// Wall. TraceID() is the query's 128-bit trace id — the handle for
// /traces/<id> on the serving layer's ops page and the id to propagate in a
// traceparent header; String() renders a one-line stage breakdown.
type QueryTrace = obs.QueryTrace

// SetTraceHeadRate sets the head-sampling fraction of the trace store: that
// share of fast, successful queries is retained for /traces (clamped to
// [0, 1]; errors and slow queries are always retained regardless). The
// default is 0 — embedded engines pay nothing until a server arms it.
func (v *VKG) SetTraceHeadRate(rate float64) { v.eng.Traces().SetHeadRate(rate) }

// SetTraceSlowThreshold sets the latency above which a query's trace is
// always retained (default 100ms); a non-positive d disables slow retention.
// The trace store is the one record of slow queries: only traced queries
// (Query.Trace or TraceParent) are offered, and /traces lists the kept ones
// with their status and latency. The retention counters are the
// vkg_trace_records_* series on the ops page's /metrics.
func (v *VKG) SetTraceSlowThreshold(d time.Duration) { v.eng.Traces().SetSlowThreshold(d) }
