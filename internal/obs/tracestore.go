package obs

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Trace outcome statuses recorded in a TraceStore. Everything except
// TraceOK is a "tail" status: those records are always retained, because
// errored, shed, timed-out, and cancelled requests are exactly the ones an
// operator comes looking for.
const (
	TraceOK       = "ok"
	TraceError    = "error"
	TraceShed     = "shed"
	TraceDeadline = "deadline"
	TraceCanceled = "canceled"
)

// TraceRecord is one retained trace-store entry. A single trace id may own
// several records — the serving layer's request envelope and the engine's
// query trace are recorded independently and reassembled at read time, the
// way span collectors work — so Find returns a slice.
type TraceRecord struct {
	// ID is the 128-bit trace id the record belongs to; Span identifies
	// this record's own span within the trace (the request span for an
	// envelope record, the query span for an engine record).
	ID   TraceID
	Span SpanID
	// Time is when the traced work started (not when it was recorded).
	Time time.Time
	// Kind classifies the record: "topk"/"aggregate" for engine query
	// records, "query"/"batch" for serving-layer request envelopes.
	Kind string
	// Tenant is the serving-layer tenant, when known.
	Tenant string
	// Status is one of the Trace* constants.
	Status string
	// Detail is a short human description (query shape, method+path, error).
	Detail string
	// Latency is the traced wall time.
	Latency time.Duration
	// Trace is the span tree for engine query records; nil for envelopes.
	Trace *QueryTrace
}

// TraceStoreStats are the store's retention counters.
type TraceStoreStats struct {
	// Offered counts records offered to the store; Kept those retained.
	Offered uint64
	Kept    uint64
	// KeptForced/Tail/Slow/Head break Kept down by the retention rule that
	// fired first (forced > tail status > slow > head sample).
	KeptForced uint64
	KeptTail   uint64
	KeptSlow   uint64
	KeptHead   uint64
	// Evicted counts retained records later overwritten by newer ones.
	Evicted uint64
	// Resident is the current record count.
	Resident int
}

// TraceStore is a bounded in-memory ring of retained trace records with a
// two-part retention policy:
//
//   - tail-based: forced traces (explicitly requested, or carrying a sampled
//     inbound traceparent), every non-ok status (error/shed/deadline/
//     canceled), and anything slower than SlowThreshold are always kept —
//     the interesting tail survives regardless of volume;
//   - head-probabilistic: of the remaining fast, successful traces a
//     deterministic fraction (HeadRate) is kept, decided from the trace-id
//     bits so every store in a request's path makes the same call without
//     coordination and without an RNG on the hot path.
//
// The ring overwrites oldest-first, so retention bounds memory: capacity
// records, each holding at most one query's span tree. A nil *TraceStore is
// valid; every method no-ops (Offer reports false).
type TraceStore struct {
	headRate atomic.Uint64 // math.Float64bits of the keep fraction in [0,1]
	slowNS   atomic.Int64  // slow-retention threshold; 0 disables

	offered    atomic.Uint64
	keptForced atomic.Uint64
	keptTail   atomic.Uint64
	keptSlow   atomic.Uint64
	keptHead   atomic.Uint64
	evicted    atomic.Uint64

	mu   sync.Mutex
	buf  []TraceRecord
	next int
	n    int
}

// DefaultTraceSlow is the default slow-retention threshold: anything slower
// is kept regardless of the head sample.
const DefaultTraceSlow = 100 * time.Millisecond

// NewTraceStore returns a store retaining the most recent capacity records
// (default 512). Head sampling starts disabled (rate 0) — engines embedded
// in batch jobs should not pay for retention nobody reads — and the slow
// threshold at DefaultTraceSlow; servers raise the head rate via SetHeadRate.
func NewTraceStore(capacity int) *TraceStore {
	if capacity <= 0 {
		capacity = 512
	}
	s := &TraceStore{buf: make([]TraceRecord, capacity)}
	s.slowNS.Store(int64(DefaultTraceSlow))
	return s
}

// SetHeadRate sets the head-sampling keep fraction, clamped to [0, 1].
// No-op on a nil store.
func (s *TraceStore) SetHeadRate(r float64) {
	if s == nil {
		return
	}
	if r < 0 || math.IsNaN(r) {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	s.headRate.Store(math.Float64bits(r))
}

// HeadRate returns the current head-sampling fraction (0 on a nil store).
func (s *TraceStore) HeadRate() float64 {
	if s == nil {
		return 0
	}
	return math.Float64frombits(s.headRate.Load())
}

// SetSlowThreshold sets the latency above which traces are always kept; a
// non-positive d disables slow retention. No-op on a nil store.
func (s *TraceStore) SetSlowThreshold(d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.slowNS.Store(int64(d))
}

// SlowThreshold returns the slow-retention threshold (0 when disabled or on
// a nil store).
func (s *TraceStore) SlowThreshold() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.slowNS.Load())
}

// headKeep is the deterministic head-sample coin: keep when the trace id's
// low word falls under rate × 2⁶⁴.
func (s *TraceStore) headKeep(id TraceID) bool {
	rate := math.Float64frombits(s.headRate.Load())
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	return float64(id.sampleWord()) < rate*(1<<64)
}

// decide applies the retention policy and names the rule that fired.
func (s *TraceStore) decide(id TraceID, forced bool, status string, lat time.Duration) (bool, *atomic.Uint64) {
	// One load: a concurrent SetSlowThreshold(0) between a "> 0" check and
	// the comparison would keep a fast trace as slow.
	slow := s.slowNS.Load()
	switch {
	case forced:
		return true, &s.keptForced
	case status != TraceOK && status != "":
		return true, &s.keptTail
	case slow > 0 && int64(lat) >= slow:
		return true, &s.keptSlow
	case s.headKeep(id):
		return true, &s.keptHead
	}
	return false, nil
}

// Offer offers a record to the store and reports whether it was retained.
// Every offer is counted. The retention policy decides once, from the
// record's id, status and latency and from forced, which marks a trace that
// was asked for or carries a sampled inbound traceparent. detail, when not
// nil, fills the record's Detail and runs only for a record the store
// keeps: the common case is a fast trace the store drops, and then no
// formatting happens at all. No-op (false) on a nil store.
func (s *TraceStore) Offer(rec TraceRecord, forced bool, detail func() string) bool {
	if s == nil {
		return false
	}
	s.offered.Add(1)
	keep, reason := s.decide(rec.ID, forced, rec.Status, rec.Latency)
	if !keep {
		return false
	}
	reason.Add(1)
	if detail != nil {
		rec.Detail = detail()
	}
	s.mu.Lock()
	if s.n == len(s.buf) {
		s.evicted.Add(1)
	}
	s.buf[s.next] = rec
	s.next = (s.next + 1) % len(s.buf)
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
	return true
}

// Entries returns the retained records, newest first. Empty on a nil store.
func (s *TraceStore) Entries() []TraceRecord {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TraceRecord, 0, s.n)
	for i := 1; i <= s.n; i++ {
		out = append(out, s.buf[(s.next-i+len(s.buf))%len(s.buf)])
	}
	return out
}

// Find returns every retained record with the given trace id, oldest first
// — the request envelope and its query traces reassemble into one tree at
// read time. Empty on a nil store or an unknown id.
func (s *TraceStore) Find(id TraceID) []TraceRecord {
	if s == nil || id.IsZero() {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TraceRecord
	for i := s.n; i >= 1; i-- {
		if r := s.buf[(s.next-i+len(s.buf))%len(s.buf)]; r.ID == id {
			out = append(out, r)
		}
	}
	return out
}

// Len returns the retained record count (0 on a nil store).
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Stats returns the retention counters (zero on a nil store).
func (s *TraceStore) Stats() TraceStoreStats {
	if s == nil {
		return TraceStoreStats{}
	}
	st := TraceStoreStats{
		Offered:    s.offered.Load(),
		KeptForced: s.keptForced.Load(),
		KeptTail:   s.keptTail.Load(),
		KeptSlow:   s.keptSlow.Load(),
		KeptHead:   s.keptHead.Load(),
		Evicted:    s.evicted.Load(),
		Resident:   s.Len(),
	}
	st.Kept = st.KeptForced + st.KeptTail + st.KeptSlow + st.KeptHead
	return st
}
