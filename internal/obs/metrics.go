// Package obs is the engine's dependency-free observability kit: atomic
// counters, gauges, and fixed-bucket latency histograms collected in a
// Registry with a Prometheus text-format exposition, plus per-query stage
// traces (trace.go) and the bounded store that retains them (tracestore.go)
// — the one record of slow and failed queries. The package mounts no HTTP
// handler itself: the serving layer's mux renders registries and trace
// stores (tracehttp.go) on the one ops page.
//
// The package is built for hot paths that run under an engine read lock:
// every increment and histogram observation is lock-free (atomic adds plus
// a CAS loop for the float sum), so instrumented code never serializes on
// the metrics and the cost with no listener attached is a few atomic
// operations per query.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
//
// Reset exists for benchmarks that separate measurement phases; Prometheus
// consumers treat a decrease as a process restart, which is the intended
// reading.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v.Store(0) }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by d.
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// exemplar is one retained (trace id, value, timestamp) sample attached to
// a histogram bucket — the OpenMetrics bridge from an aggregate latency
// series to a concrete trace on /traces. unixSec is float seconds as the
// OpenMetrics exemplar timestamp wants.
type exemplar struct {
	trace   TraceID
	value   float64
	unixSec float64
}

// Histogram is a fixed-bucket histogram with a lock-free observation path:
// one atomic add into the bucket, one into the total count, and a CAS loop
// folding the value into the float sum. Buckets are cumulative only at
// exposition time; the stored counts are per-bucket.
//
// Each bucket additionally holds the most recent traced observation as an
// exemplar (one atomic pointer swap, paid only by traced requests); the
// OpenMetrics exposition renders them, the Prometheus 0.0.4 one ignores
// them, so plain Observe calls and scrapes are byte-identical to before.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; an implicit +Inf bucket follows
	counts    []atomic.Uint64
	count     atomic.Uint64
	sum       atomic.Uint64 // math.Float64bits of the running sum
	exemplars []atomic.Pointer[exemplar]
}

// LatencyBuckets are the default histogram bounds for durations in seconds:
// powers of two from 1µs to ~67s. Fixed exponential bounds keep the bucket
// search branch-predictable and make p50/p95/p99 interpolation stable across
// four decades of latency.
func LatencyBuckets() []float64 {
	b := make([]float64, 27)
	v := 1e-6
	for i := range b {
		b[i] = v
		v *= 2
	}
	return b
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// A nil or empty bounds slice selects LatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets()
	}
	h := &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Uint64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search keeps the fast path at ~5 comparisons for the default
	// 27-bucket layout; no locks anywhere.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveExemplar is Observe plus an exemplar: when id is non-zero the
// observation's bucket remembers (id, v, now) as its latest traced sample.
// A zero id is exactly Observe — untraced hot paths pay nothing beyond the
// branch.
func (h *Histogram) ObserveExemplar(v float64, id TraceID) {
	h.Observe(v)
	if id.IsZero() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.exemplars[i].Store(&exemplar{trace: id, value: v, unixSec: float64(time.Now().UnixMicro()) / 1e6})
}

// HistSnapshot is a point-in-time summary of a histogram.
type HistSnapshot struct {
	Count         uint64
	Sum           float64
	P50, P95, P99 float64
}

// Mean returns Sum/Count, or 0 for an empty histogram.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// LatencyStats summarizes a latency distribution: the observation count and
// the mean/median/tail durations.
type LatencyStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
}

// Latency reads a snapshot of a histogram observed in seconds as durations.
func (s HistSnapshot) Latency() LatencyStats {
	sec := func(v float64) time.Duration { return time.Duration(v * float64(time.Second)) }
	return LatencyStats{Count: s.Count, Mean: sec(s.Mean()), P50: sec(s.P50), P95: sec(s.P95), P99: sec(s.P99)}
}

// Snapshot summarizes the histogram. Concurrent observations may land
// between the atomic reads; the snapshot is race-clean but not a perfect
// cut, which is the usual contract for live metrics.
func (h *Histogram) Snapshot() HistSnapshot {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return HistSnapshot{
		Count: h.count.Load(),
		Sum:   math.Float64frombits(h.sum.Load()),
		P50:   quantile(h.bounds, counts, total, 0.50),
		P95:   quantile(h.bounds, counts, total, 0.95),
		P99:   quantile(h.bounds, counts, total, 0.99),
	}
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket containing the target rank. Values in the overflow bucket report
// the largest finite bound.
func quantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(bounds) {
			return bounds[len(bounds)-1] // overflow bucket: clamp
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		frac := (rank - prev) / float64(c)
		return lo + (hi-lo)*frac
	}
	return bounds[len(bounds)-1]
}

// Label is one constant Prometheus label attached at registration.
type Label struct {
	Key, Value string
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGauge
	kindGaugeFunc
	kindHistogram
)

type metric struct {
	family string // metric family name, e.g. vkg_query_latency_seconds
	labels string // rendered constant labels: `kind="topk"` or ""
	help   string
	kind   metricKind

	c  *Counter
	cf func() uint64
	g  *Gauge
	gf func() float64
	h  *Histogram
}

// Registry holds named metrics and renders them in Prometheus text format.
// Registration takes a lock; reads of registered metrics never do.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	return strings.Join(parts, ",")
}

func (r *Registry) add(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a new counter. Metrics of the same family
// (same name, different labels) should be registered consecutively so the
// exposition groups them under one HELP/TYPE header.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	c := &Counter{}
	r.add(&metric{family: name, labels: renderLabels(labels), help: help, kind: kindCounter, c: c})
	return c
}

// CounterFunc registers a counter whose value is read from fn at exposition
// time — for monotone counts maintained elsewhere (e.g. index node-access
// counters owned by the tree).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.add(&metric{family: name, labels: renderLabels(labels), help: help, kind: kindCounterFunc, cf: fn})
}

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	g := &Gauge{}
	r.add(&metric{family: name, labels: renderLabels(labels), help: help, kind: kindGauge, g: g})
	return g
}

// GaugeFunc registers a gauge computed by fn at exposition time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(&metric{family: name, labels: renderLabels(labels), help: help, kind: kindGaugeFunc, gf: fn})
}

// Histogram registers and returns a new histogram; nil bounds selects
// LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.add(&metric{family: name, labels: renderLabels(labels), help: help, kind: kindHistogram, h: h})
	return h
}

// OpenMetricsContentType is the content type of the OpenMetrics text
// exposition format; /metrics switches to it when the Accept header asks.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// WantsOpenMetrics reports whether the request negotiates the OpenMetrics
// exposition format (the only format that can carry exemplars).
func WantsOpenMetrics(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
}

// WritePrometheusLabeled renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), with extra constant labels
// appended to every series — how a multi-tenant server exposes several
// engine registries on one /metrics page, each stamped tenant="name". seen
// carries family names whose HELP/TYPE headers were already emitted by an
// earlier registry on the same page, so shared families keep a single
// header; pass nil for a standalone page.
func (r *Registry) WritePrometheusLabeled(w io.Writer, seen map[string]bool, extra ...Label) error {
	return r.writeText(w, seen, false, extra...)
}

// WriteOpenMetricsLabeled renders the registry in the OpenMetrics 1.0 text
// format, without the trailing "# EOF": render each registry of a page with
// a shared seen map, then call WriteOpenMetricsEOF once. It differs from the
// 0.0.4 rendering in two ways: counter families drop their "_total" suffix
// in HELP/TYPE headers (samples keep it, per the grammar), and histogram
// bucket lines carry exemplars — `# {trace_id="..."} value ts` — linking the
// bucket to the most recent traced observation that landed in it. Serve it
// under OpenMetricsContentType.
func (r *Registry) WriteOpenMetricsLabeled(w io.Writer, seen map[string]bool, extra ...Label) error {
	return r.writeText(w, seen, true, extra...)
}

// WriteOpenMetricsEOF terminates an OpenMetrics page.
func WriteOpenMetricsEOF(w io.Writer) error {
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

// omFamily maps a metric family to its OpenMetrics MetricFamily name: the
// grammar requires counter sample names to end in _total while the family
// name in HELP/TYPE must not.
func omFamily(m *metric) string {
	if m.kind == kindCounter || m.kind == kindCounterFunc {
		return strings.TrimSuffix(m.family, "_total")
	}
	return m.family
}

func (r *Registry) writeText(w io.Writer, seen map[string]bool, om bool, extra ...Label) error {
	r.mu.Lock()
	metrics := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()

	if seen == nil {
		seen = make(map[string]bool)
	}
	extraLabels := renderLabels(extra)
	for _, m := range metrics {
		if !seen[m.family] {
			seen[m.family] = true
			typ := "counter"
			switch m.kind {
			case kindGauge, kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			header := m.family
			if om {
				header = omFamily(m)
			}
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", header, m.help, header, typ); err != nil {
				return err
			}
		}
		if err := m.write(w, extraLabels, om); err != nil {
			return err
		}
	}
	return nil
}

func (m *metric) write(w io.Writer, extraLabels string, om bool) error {
	series := func(suffix, extraLabel string) string {
		labels := m.labels
		if extraLabels != "" {
			if labels != "" {
				labels += ","
			}
			labels += extraLabels
		}
		if extraLabel != "" {
			if labels != "" {
				labels += ","
			}
			labels += extraLabel
		}
		if labels == "" {
			return m.family + suffix
		}
		return m.family + suffix + "{" + labels + "}"
	}
	switch m.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), m.c.Value())
		return err
	case kindCounterFunc:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), m.cf())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s %d\n", series("", ""), m.g.Value())
		return err
	case kindGaugeFunc:
		_, err := fmt.Fprintf(w, "%s %s\n", series("", ""), formatFloat(m.gf()))
		return err
	case kindHistogram:
		// In OpenMetrics mode each bucket line may carry its exemplar:
		// `... # {trace_id="<hex>"} value ts`. Exemplars are only legal in
		// OpenMetrics; the 0.0.4 exposition omits them.
		exemplarSuffix := func(i int) string {
			if !om {
				return ""
			}
			ex := m.h.exemplars[i].Load()
			if ex == nil {
				return ""
			}
			return fmt.Sprintf(" # {trace_id=%q} %s %s", ex.trace.String(), formatFloat(ex.value), formatFloat(ex.unixSec))
		}
		var cum uint64
		for i, b := range m.h.bounds {
			cum += m.h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "%s %d%s\n", series("_bucket", fmt.Sprintf("le=%q", formatFloat(b))), cum, exemplarSuffix(i)); err != nil {
				return err
			}
		}
		cum += m.h.counts[len(m.h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "%s %d%s\n", series("_bucket", `le="+Inf"`), cum, exemplarSuffix(len(m.h.bounds))); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", series("_sum", ""), formatFloat(math.Float64frombits(m.h.sum.Load()))); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s %d\n", series("_count", ""), m.h.count.Load())
		return err
	}
	return nil
}

func formatFloat(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.9f", v), "0"), ".")
}
