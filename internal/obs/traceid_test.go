package obs

import (
	"strings"
	"testing"
)

func TestNewTraceIDUniqueNonZero(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id.IsZero() {
			t.Fatal("NewTraceID returned the zero id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
	if NewSpanID().IsZero() {
		t.Fatal("NewSpanID returned the zero id")
	}
}

func TestTraceIDString(t *testing.T) {
	var id TraceID
	copy(id[:], []byte{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36})
	if got := id.String(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("String() = %q", got)
	}
	back, ok := ParseTraceID(id.String())
	if !ok || back != id {
		t.Fatalf("ParseTraceID round trip failed: %v %v", back, ok)
	}
}

func TestParseTraceIDRejects(t *testing.T) {
	// Unlike the W3C header fields, the /traces/<id> handle is lenient
	// about case: hex.Decode accepts both.
	if _, ok := ParseTraceID("4BF92F3577B34DA6A3CE929D0E0E4736"); !ok {
		t.Error("uppercase hex rejected; the URL handle should be case-insensitive")
	}
	for _, s := range []string{
		"",
		"4bf92f3577b34da6a3ce929d0e0e473",    // 31 digits
		"4bf92f3577b34da6a3ce929d0e0e47366",  // 33 digits
		"00000000000000000000000000000000",   // all-zero id is invalid
		"4bf92f3577b34da6a3ce929d0e0e473g",   // non-hex
		"4bf92f35-77b3-4da6-a3ce-929d0e0e47", // uuid-style dashes
	} {
		if _, ok := ParseTraceID(s); ok {
			t.Errorf("ParseTraceID(%q) accepted, want reject", s)
		}
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	id := NewTraceID()
	span := NewSpanID()
	for _, sampled := range []bool{false, true} {
		h := Traceparent(id, span, sampled)
		if len(h) != 55 {
			t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
		}
		if !strings.HasPrefix(h, "00-") {
			t.Fatalf("traceparent %q missing version 00 prefix", h)
		}
		wantFlags := "-00"
		if sampled {
			wantFlags = "-01"
		}
		if !strings.HasSuffix(h, wantFlags) {
			t.Fatalf("traceparent %q flags, want suffix %q", h, wantFlags)
		}
		gid, gspan, gsampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent rejected own output %q", h)
		}
		if gid != id || gspan != span || gsampled != sampled {
			t.Fatalf("round trip %q: got (%s, %x, %v), want (%s, %x, %v)",
				h, gid, gspan, gsampled, id, span, sampled)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	const good = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	if _, _, sampled, ok := ParseTraceparent(good); !ok || !sampled {
		t.Fatalf("canonical W3C example rejected: ok=%v sampled=%v", ok, sampled)
	}
	// An unsampled flag must parse with sampled=false.
	if _, _, sampled, ok := ParseTraceparent(good[:len(good)-2] + "00"); !ok || sampled {
		t.Fatalf("unsampled header: ok=%v sampled=%v", ok, sampled)
	}
	// A future version may carry extra fields after its 55-char prefix.
	if _, _, _, ok := ParseTraceparent("cc" + good[2:] + "-extra"); !ok {
		t.Error("future version with trailing field rejected")
	}

	for name, h := range map[string]string{
		"empty":               "",
		"truncated":           good[:54],
		"uppercase trace id":  "00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"uppercase span id":   "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067AA0BA902B7-01",
		"zero trace id":       "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":        "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"version ff":          "ff" + good[2:],
		"bad version hex":     "0g" + good[2:],
		"missing dash":        "00x4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"short trace id":      "00-4bf92f3577b34da6a3ce929d0e0e473-00f067aa0ba902b77-01",
		"non-hex flags":       good[:53] + "zz",
		"version 00 trailing": good + "-extra",
		"whitespace":          " " + good,
	} {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, h)
		}
	}
}

// TestHeadSamplingDeterministic pins that the head-sampling decision is a
// pure function of the trace id, so every store (and a resumed parse of the
// same header) agrees on it.
func TestHeadSamplingDeterministic(t *testing.T) {
	a := NewTraceStore(64)
	b := NewTraceStore(64)
	a.SetHeadRate(0.5)
	b.SetHeadRate(0.5)
	for i := 0; i < 256; i++ {
		id := NewTraceID()
		rec := TraceRecord{ID: id, Status: TraceOK}
		if a.Offer(rec, false, nil) != b.Offer(rec, false, nil) {
			t.Fatalf("stores disagree on head sampling for %s", id)
		}
		if a.Offer(rec, false, nil) != a.Offer(rec, false, nil) {
			t.Fatalf("head sampling not deterministic for %s", id)
		}
	}
}
