package obs

import (
	"regexp"
	"strings"
	"testing"
)

// omBucketExemplar matches an OpenMetrics histogram bucket line carrying an
// exemplar, per the 1.0 grammar:
//
//	name_bucket{le="..."} <count> # {trace_id="<32 hex>"} <value> <timestamp>
var omBucketExemplar = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*_bucket\{[^}]*le="[^"]+"[^}]*\} [0-9]+ # \{trace_id="[0-9a-f]{32}"\} [0-9.eE+-]+ [0-9]+(\.[0-9]+)?$`)

// writeOpenMetrics renders r as a standalone OpenMetrics page.
func writeOpenMetrics(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteOpenMetricsLabeled(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteOpenMetricsEOF(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// writePrometheus renders r as a standalone 0.0.4 page.
func writePrometheus(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheusLabeled(&sb, nil); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestOpenMetricsExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	id := NewTraceID()
	h.ObserveExemplar(0.05, id) // lands in the le="0.1" bucket
	h.Observe(0.5)              // untraced: le="1" gets no exemplar

	out := writeOpenMetrics(t, r)

	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("OpenMetrics page missing # EOF terminator:\n%s", out)
	}
	if !strings.Contains(out, `trace_id="`+id.String()+`"`) {
		t.Fatalf("exemplar trace id %s missing:\n%s", id, out)
	}

	var sawExemplar bool
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, " # {") {
			continue
		}
		sawExemplar = true
		if !omBucketExemplar.MatchString(line) {
			t.Errorf("exemplar line fails the OpenMetrics grammar: %q", line)
		}
		if !strings.Contains(line, `le="0.1"`) {
			t.Errorf("exemplar on unexpected bucket: %q", line)
		}
	}
	if !sawExemplar {
		t.Fatalf("no exemplar line in output:\n%s", out)
	}

	// The classic Prometheus 0.0.4 rendering must be byte-identical to what
	// it always was: no exemplars, no EOF.
	if s := writePrometheus(t, r); strings.Contains(s, "#{") || strings.Contains(s, " # {") || strings.Contains(s, "# EOF") {
		t.Fatalf("Prometheus 0.0.4 output leaked OpenMetrics syntax:\n%s", s)
	}
}

func TestObserveExemplarZeroID(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{1})
	h.ObserveExemplar(0.5, TraceID{}) // untraced: observe only

	out := writeOpenMetrics(t, r)
	if strings.Contains(out, " # {") {
		t.Fatalf("zero trace id produced an exemplar:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_bucket{le="1"} 1`) {
		t.Fatalf("observation lost:\n%s", out)
	}
}

// TestOpenMetricsCounterFamily pins the _total handling: the sample name
// keeps the suffix, the HELP/TYPE family name drops it.
func TestOpenMetricsCounterFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests.").Add(2)

	out := writeOpenMetrics(t, r)
	for _, want := range []string{
		"# TYPE test_requests counter",
		"# HELP test_requests Requests.",
		"test_requests_total 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("OpenMetrics output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# TYPE test_requests_total") {
		t.Errorf("OM family name kept _total:\n%s", out)
	}

	if s := writePrometheus(t, r); !strings.Contains(s, "# TYPE test_requests_total counter") {
		t.Errorf("0.0.4 family name changed:\n%s", s)
	}
}
