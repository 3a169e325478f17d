package obs

import (
	"bufio"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("Value after Reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("Value = %d, want %d", got, workers*each)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	// Bucket upper bounds are inclusive (Prometheus le semantics): the
	// observation of exactly 1 lands in the le="1" bucket.
	want := []uint64{2, 1, 1, 1}
	for i := range want {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Errorf("Count = %d, want 5", s.Count)
	}
	if math.Abs(s.Sum-106) > 1e-9 {
		t.Errorf("Sum = %v, want 106", s.Sum)
	}
}

func TestHistogramPercentiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for i := 0; i < 50; i++ {
		h.Observe(0.5) // le="1"
	}
	for i := 0; i < 45; i++ {
		h.Observe(1.5) // le="2"
	}
	for i := 0; i < 5; i++ {
		h.Observe(3.5) // le="4"
	}
	s := h.Snapshot()
	// p50: rank 50 exhausts the first bucket exactly -> its upper bound.
	if math.Abs(s.P50-1.0) > 1e-9 {
		t.Errorf("P50 = %v, want 1.0", s.P50)
	}
	// p95: rank 95 exhausts the second bucket -> 2.0.
	if math.Abs(s.P95-2.0) > 1e-9 {
		t.Errorf("P95 = %v, want 2.0", s.P95)
	}
	// p99: rank 99 is 4/5 through the (2, 4] bucket -> 2 + 0.8*2 = 3.6.
	if math.Abs(s.P99-3.6) > 1e-9 {
		t.Errorf("P99 = %v, want 3.6", s.P99)
	}
	if mean := s.Mean(); math.Abs(mean-(50*0.5+45*1.5+5*3.5)/100) > 1e-9 {
		t.Errorf("Mean = %v", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.P50 != 0 || s.P99 != 0 || s.Mean() != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(nil)
	const workers, each = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*each {
		t.Fatalf("Count = %d, want %d", s.Count, workers*each)
	}
	// The CAS loop must not lose updates: the float sum is exact here since
	// 0.001*40000 stays well within float64 precision for this accumulation.
	if math.Abs(s.Sum-float64(workers*each)*0.001) > 1e-6 {
		t.Fatalf("Sum = %v, want %v", s.Sum, float64(workers*each)*0.001)
	}
}

func TestLatencyBuckets(t *testing.T) {
	b := LatencyBuckets()
	if len(b) != 27 {
		t.Fatalf("len = %d, want 27", len(b))
	}
	if b[0] != 1e-6 {
		t.Fatalf("first bound = %v, want 1e-6", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
}

// TestWritePrometheus checks the exposition end to end: HELP/TYPE once per
// family, label rendering, cumulative histogram buckets with a trailing
// +Inf equal to _count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_requests_total", "Requests.", Label{Key: "kind", Value: "a"})
	b := r.Counter("test_requests_total", "Requests.", Label{Key: "kind", Value: "b"})
	r.GaugeFunc("test_temperature", "Temp.", func() float64 { return 1.5 })
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{1, 2})
	a.Add(3)
	b.Add(7)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)

	var sb strings.Builder
	if err := r.WritePrometheusLabeled(&sb, nil); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	if n := strings.Count(out, "# TYPE test_requests_total counter"); n != 1 {
		t.Errorf("TYPE header for test_requests_total appears %d times, want 1\n%s", n, out)
	}
	for _, want := range []string{
		`test_requests_total{kind="a"} 3`,
		`test_requests_total{kind="b"} 7`,
		`test_temperature 1.5`,
		`test_latency_seconds_bucket{le="1"} 1`,
		`test_latency_seconds_bucket{le="2"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		`test_latency_seconds_count 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}

	// Every non-comment line must parse as `series value`.
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Fatalf("bad value in line %q: %v", line, err)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{1, "1"},
		{1.5, "1.5"},
		{0.000001, "0.000001"},
		{0, "0"},
	} {
		if got := formatFloat(tc.in); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func ExampleRegistry_WritePrometheusLabeled() {
	r := NewRegistry()
	c := r.Counter("example_total", "Things that happened.")
	c.Add(2)
	var sb strings.Builder
	_ = r.WritePrometheusLabeled(&sb, nil, Label{Key: "tenant", Value: "movie"})
	fmt.Print(sb.String())
	// Output:
	// # HELP example_total Things that happened.
	// # TYPE example_total counter
	// example_total{tenant="movie"} 2
}

// TestWritePrometheusLabeled: extra labels land on every series of the
// registry (after any constant labels), and a shared seen map keeps
// HELP/TYPE headers unique when several registries render one page.
func TestWritePrometheusLabeled(t *testing.T) {
	a := NewRegistry()
	a.Counter("vkg_requests_total", "Requests.", Label{"kind", "topk"}).Add(3)
	a.Histogram("vkg_wait_seconds", "Wait.", []float64{1}).Observe(0.5)
	b := NewRegistry()
	b.Counter("vkg_requests_total", "Requests.", Label{"kind", "topk"}).Add(7)

	var sb strings.Builder
	seen := make(map[string]bool)
	if err := a.WritePrometheusLabeled(&sb, seen, Label{"tenant", "movie"}); err != nil {
		t.Fatal(err)
	}
	if err := b.WritePrometheusLabeled(&sb, seen, Label{"tenant", "amazon"}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		`vkg_requests_total{kind="topk",tenant="movie"} 3`,
		`vkg_requests_total{kind="topk",tenant="amazon"} 7`,
		`vkg_wait_seconds_bucket{tenant="movie",le="1"} 1`,
		`vkg_wait_seconds_count{tenant="movie"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "# HELP vkg_requests_total"); got != 1 {
		t.Errorf("HELP header for shared family emitted %d times, want 1:\n%s", got, out)
	}
}
