package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
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

// WriteTraceList renders records (newest first) plus the store's retention
// stats as the /traces JSON document.
func WriteTraceList(w http.ResponseWriter, recs []TraceRecord, stats TraceStoreStats) {
	w.Header().Set("Content-Type", "application/json")
	out := struct {
		Stats  TraceStoreStats  `json:"stats"`
		Traces []traceListEntry `json:"traces"`
	}{Stats: stats, Traces: make([]traceListEntry, 0, len(recs))}
	for _, r := range recs {
		out.Traces = append(out.Traces, toListEntry(r))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

// WriteTraceRecords renders one trace's records — text by default, JSON when
// format == "json". Records should be oldest first (Find's order).
func WriteTraceRecords(w http.ResponseWriter, id TraceID, recs []TraceRecord, format string) {
	if len(recs) == 0 {
		http.Error(w, "trace "+id.String()+" not retained (dropped by sampling, evicted, or never seen)", http.StatusNotFound)
		return
	}
	if format == "json" {
		w.Header().Set("Content-Type", "application/json")
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
		type jsonRec struct {
			traceListEntry
			Span        string     `json:"span,omitempty"`
			Parent      string     `json:"parent,omitempty"`
			LeaderTrace string     `json:"leader_trace,omitempty"`
			Stages      []jsonSpan `json:"stages,omitempty"`
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
				jr.Parent = tr.ParentSpan().String()
				if !tr.LeaderTrace.IsZero() {
					jr.LeaderTrace = tr.LeaderTrace.String()
				}
				for _, s := range tr.Spans {
					js := jsonSpan{Stage: s.Stage, StartMS: ms(s.Start), MS: ms(s.Dur)}
					if s.Stage == StageCrack {
						js.jsonCrack = &jsonCrack{ms(tr.LockWait), ms(tr.LockHeld), tr.Splits, tr.NodesCreated}
					}
					jr.Stages = append(jr.Stages, js)
				}
			}
			out.Records = append(out.Records, jr)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	RenderTraceText(w, id, recs)
}

// RenderTraceText renders one trace's reassembled records as an indented
// plain-text tree: request envelopes first, each engine query trace with its
// stage spans beneath it.
func RenderTraceText(w io.Writer, id TraceID, recs []TraceRecord) {
	fmt.Fprintf(w, "trace %s  (%d record", id.String(), len(recs))
	if len(recs) != 1 {
		fmt.Fprint(w, "s")
	}
	fmt.Fprint(w, ")\n\n")
	// Envelope records (no span tree) lead; query records follow in recorded
	// order, which is also parent-before-child for batch requests.
	ordered := append([]TraceRecord(nil), recs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		ei, ej := ordered[i].Trace == nil, ordered[j].Trace == nil
		return ei && !ej
	})
	rnd := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	for _, r := range ordered {
		tag := r.Kind
		if tag == "" {
			tag = "record"
		}
		fmt.Fprintf(w, "[%s] %s", tag, r.Time.Format(time.RFC3339Nano))
		if r.Tenant != "" {
			fmt.Fprintf(w, " tenant=%s", r.Tenant)
		}
		fmt.Fprintf(w, " status=%s latency=%v", r.Status, rnd(r.Latency))
		if !r.Span.IsZero() {
			fmt.Fprintf(w, " span=%s", r.Span)
		}
		if r.Detail != "" {
			fmt.Fprintf(w, "  %s", r.Detail)
		}
		fmt.Fprintln(w)
		tr := r.Trace
		if tr == nil {
			continue
		}
		if !tr.ParentSpan().IsZero() {
			fmt.Fprintf(w, "  parent=%s\n", tr.ParentSpan())
		}
		for _, s := range tr.Spans {
			fmt.Fprintf(w, "  %-10s %10v", s.Stage, rnd(s.Dur))
			if s.Stage == StageCrack {
				fmt.Fprintf(w, "  lock-wait=%v held=%v splits=%d nodes=%d",
					rnd(tr.LockWait), rnd(tr.LockHeld), tr.Splits, tr.NodesCreated)
			}
			fmt.Fprintln(w)
		}
		if tr.CacheHit {
			fmt.Fprintln(w, "  cache hit")
		}
		if tr.Coalesced {
			if tr.LeaderTrace.IsZero() {
				fmt.Fprintln(w, "  coalesced onto another in-flight execution")
			} else {
				fmt.Fprintf(w, "  coalesced -> leader trace %s\n", tr.LeaderTrace)
			}
		}
	}
}
