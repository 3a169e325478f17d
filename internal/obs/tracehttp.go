package obs

import (
	"encoding/json"
	"net/http"
	"time"
)

// traceListEntry is one row of the /traces JSON list.
type traceListEntry struct {
	TraceID   string    `json:"trace_id"`
	Time      time.Time `json:"time"`
	Kind      string    `json:"kind"`
	Tenant    string    `json:"tenant,omitempty"`
	Status    string    `json:"status"`
	Detail    string    `json:"detail,omitempty"`
	LatencyMS float64   `json:"latency_ms"`
	Spans     int       `json:"spans"`
	Link      string    `json:"link"`
}

func toListEntry(r TraceRecord) traceListEntry {
	spans := 0
	if r.Trace != nil {
		spans = len(r.Trace.Spans)
	}
	return traceListEntry{
		TraceID:   r.ID.String(),
		Time:      r.Time,
		Kind:      r.Kind,
		Tenant:    r.Tenant,
		Status:    r.Status,
		Detail:    r.Detail,
		LatencyMS: float64(r.Latency) / float64(time.Millisecond),
		Spans:     spans,
		Link:      "/traces/" + r.ID.String(),
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteTraceList renders records (newest first) as the /traces JSON
// document. The store's retention counters are on /metrics
// (vkg_trace_records_*), not here.
func WriteTraceList(w http.ResponseWriter, recs []TraceRecord) {
	out := struct {
		Traces []traceListEntry `json:"traces"`
	}{Traces: make([]traceListEntry, 0, len(recs))}
	for _, r := range recs {
		out.Traces = append(out.Traces, toListEntry(r))
	}
	writeJSON(w, out)
}

// jsonCrack is what the crack span alone carries.
type jsonCrack struct {
	LockWaitMS float64 `json:"lock_wait_ms"`
	HeldMS     float64 `json:"held_ms"`
	Splits     int     `json:"splits"`
	Nodes      int     `json:"nodes"`
}

type jsonSpan struct {
	Stage   string  `json:"stage"`
	StartMS float64 `json:"start_ms"`
	MS      float64 `json:"ms"`
	*jsonCrack
}

// jsonQuery is what an engine query record carries beyond the list entry;
// request envelopes have none of it.
type jsonQuery struct {
	Parent      string     `json:"parent,omitempty"`
	LeaderTrace string     `json:"leader_trace,omitempty"`
	CacheHit    bool       `json:"cache_hit"`
	Coalesced   bool       `json:"coalesced"`
	Stages      []jsonSpan `json:"stages,omitempty"`
}

type jsonRec struct {
	traceListEntry
	Span string `json:"span,omitempty"`
	*jsonQuery
}

// WriteTraceRecords renders one trace's records as JSON, or 404 when none
// was retained. Records should be oldest first (Find's order).
func WriteTraceRecords(w http.ResponseWriter, id TraceID, recs []TraceRecord) {
	if len(recs) == 0 {
		http.Error(w, "trace "+id.String()+" not retained (dropped by sampling, evicted, or never seen)", http.StatusNotFound)
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	out := struct {
		TraceID string    `json:"trace_id"`
		Records []jsonRec `json:"records"`
	}{TraceID: id.String()}
	for _, r := range recs {
		jr := jsonRec{traceListEntry: toListEntry(r)}
		if !r.Span.IsZero() {
			jr.Span = r.Span.String()
		}
		if tr := r.Trace; tr != nil {
			q := &jsonQuery{CacheHit: tr.CacheHit, Coalesced: tr.Coalesced}
			if p := tr.ParentSpan(); !p.IsZero() {
				q.Parent = p.String()
			}
			if !tr.LeaderTrace.IsZero() {
				q.LeaderTrace = tr.LeaderTrace.String()
			}
			for _, s := range tr.Spans {
				js := jsonSpan{Stage: s.Stage, StartMS: ms(s.Start), MS: ms(s.Dur)}
				if s.Stage == StageCrack {
					js.jsonCrack = &jsonCrack{ms(tr.LockWait), ms(tr.LockHeld), tr.Splits, tr.NodesCreated}
				}
				q.Stages = append(q.Stages, js)
			}
			jr.jsonQuery = q
		}
		out.Records = append(out.Records, jr)
	}
	writeJSON(w, out)
}
