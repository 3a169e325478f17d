package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"vkgraph/vkg"
)

// span is one timed layer crossing of one request. Spans of a request share
// Req; Parent names the enclosing layer ("" for the outermost). Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Layer names of the spans the benchmark can record from outside.
const (
	layerWire  = "wire"
	layerServe = "serve"
	layerVKG   = "vkg"
)

// tracer keeps the spans of a traced run in memory; they are written out
// once, after the run. A nil tracer records nothing, which is how the
// untraced runs share the code paths.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one finished span. Request 0 is traffic outside the
// measured sequence (warm-up, probes) and is not recorded.
func (t *tracer) record(name, parent string, req uint64, start, end time.Time) {
	if t == nil || req == 0 {
		return
	}
	s := span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns, per request, the summed duration of the named layer's
// spans in microseconds.
func (t *tracer) durations(name string) map[uint64]float64 {
	out := make(map[uint64]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Req] += float64(s.End-s.Start) / 1e3 // ns to us
		}
	}
	return out
}

// selfTimeUS is the mean over requests of a layer's span minus the part of
// it its child layer covers, in microseconds. Requests missing either span
// are left out.
func (t *tracer) selfTimeUS(layer, child string) float64 {
	outer, inner := t.durations(layer), t.durations(child)
	var sum float64
	n := 0
	for req, d := range outer {
		if c, ok := inner[req]; ok {
			sum += d - c
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func (t *tracer) meanUS(layer string) float64 {
	d := t.durations(layer)
	if len(d) == 0 {
		return 0
	}
	var sum float64
	for _, v := range d {
		sum += v
	}
	return sum / float64(len(d))
}

// writeFile writes the spans as JSON lines: one span object per line.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// The request id rides in the W3C traceparent the client sends: the server
// adopts the trace id and hands it to the backend in Query.TraceParent, so
// the three layers of one request meet again in the span file. The parent
// span id is a fixed non-zero value and the flags are 00, so the header
// does not force the server to retain the trace.
func traceparentFor(req uint64) string {
	return fmt.Sprintf("00-%032x-00000000000000b1-00", req)
}

// reqFromTraceparent undoes traceparentFor; 0 means no usable header.
func reqFromTraceparent(h string) uint64 {
	if len(h) != 55 || h[:3] != "00-" {
		return 0
	}
	req, err := strconv.ParseUint(h[19:35], 16, 64)
	if err != nil {
		return 0
	}
	return req
}

// serveSpans is the middleware around Server.Handler(): the serve layer as
// seen from outside it.
func serveSpans(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		if req := reqFromTraceparent(r.Header.Get("traceparent")); req != 0 {
			t.record(layerServe, layerWire, req, start, time.Now())
		}
	})
}

// vkgSpans is the serve.Backend that stands between the server and the VKG
// in a traced run, timing VKG.Do.
type vkgSpans struct {
	v *vkg.VKG
	t *tracer
}

func (b vkgSpans) Do(ctx context.Context, q vkg.Query) (*vkg.Result, error) {
	start := time.Now()
	res, err := b.v.Do(ctx, q)
	if req := reqFromTraceparent(q.TraceParent); req != 0 {
		b.t.record(layerVKG, layerServe, req, start, time.Now())
	}
	return res, err
}

func (b vkgSpans) DoBatchWorkers(ctx context.Context, qs []vkg.Query, workers int) []vkg.Result {
	return b.v.DoBatchWorkers(ctx, qs, workers)
}
