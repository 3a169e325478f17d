package obs

import (
	"sync"
	"testing"
	"time"
)

func TestTraceStoreNilSafe(t *testing.T) {
	var s *TraceStore
	s.SetHeadRate(1)
	s.SetSlowThreshold(time.Second)
	if s.Offer(TraceRecord{ID: NewTraceID(), Status: TraceError}, true, func() string { panic("detail built") }) {
		t.Error("nil store kept a record")
	}
	if s.Entries() != nil || s.Find(NewTraceID()) != nil || s.Len() != 0 {
		t.Error("nil store returned entries")
	}
	_ = s.Stats()
	_ = s.HeadRate()
	_ = s.SlowThreshold()
}

// TestTraceStoreRetention pins the tail-sampling policy: forced beats
// everything, non-ok statuses are always kept, slow requests are always
// kept, and fast successes fall through to the head-sampling rate.
func TestTraceStoreRetention(t *testing.T) {
	s := NewTraceStore(128)
	s.SetHeadRate(0) // isolate the tail policy
	rec := func(status string, lat time.Duration) TraceRecord {
		return TraceRecord{ID: NewTraceID(), Time: time.Now(), Kind: "topk", Status: status, Latency: lat}
	}

	if s.Offer(rec(TraceOK, time.Millisecond), false, nil) {
		t.Error("fast OK record kept with head sampling off")
	}
	for _, status := range []string{TraceError, TraceShed, TraceDeadline, TraceCanceled} {
		if !s.Offer(rec(status, time.Millisecond), false, nil) {
			t.Errorf("fast %s record dropped, want tail-kept", status)
		}
	}
	if !s.Offer(rec(TraceOK, DefaultTraceSlow+time.Millisecond), false, nil) {
		t.Error("slow OK record dropped, want slow-kept")
	}
	if !s.Offer(rec(TraceOK, time.Millisecond), true, nil) {
		t.Error("forced fast OK record dropped")
	}

	s.SetSlowThreshold(time.Minute)
	if s.Offer(rec(TraceOK, time.Second), false, nil) {
		t.Error("sub-threshold record kept after raising the slow threshold")
	}

	s.SetHeadRate(1)
	if !s.Offer(rec(TraceOK, time.Nanosecond), false, nil) {
		t.Error("head rate 1.0 dropped a record")
	}

	st := s.Stats()
	if st.KeptTail != 4 || st.KeptSlow != 1 || st.KeptForced != 1 || st.KeptHead != 1 {
		t.Errorf("stats %+v, want tail=4 slow=1 forced=1 head=1", st)
	}
	if st.Kept != st.KeptTail+st.KeptSlow+st.KeptForced+st.KeptHead {
		t.Errorf("Kept %d is not the sum of its reasons: %+v", st.Kept, st)
	}
	if st.Offered != 9 {
		t.Errorf("Offered = %d, want 9", st.Offered)
	}
	if got := s.Len(); uint64(got) != st.Kept || got != st.Resident {
		t.Errorf("Len %d, Kept %d, Resident %d must agree below capacity", got, st.Kept, st.Resident)
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewTraceStore(4)
	s.SetHeadRate(1)
	ids := make([]TraceID, 10)
	for i := range ids {
		ids[i] = NewTraceID()
		s.Offer(TraceRecord{ID: ids[i], Time: time.Now(), Status: TraceOK}, false, nil)
	}
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want capacity 4", s.Len())
	}
	st := s.Stats()
	if st.Evicted != 6 || st.Resident != 4 {
		t.Fatalf("stats %+v, want evicted=6 resident=4", st)
	}
	// Newest-first: the survivors are the last four, ids[9] first.
	entries := s.Entries()
	if len(entries) != 4 || entries[0].ID != ids[9] || entries[3].ID != ids[6] {
		t.Fatalf("Entries() = %v, want ids 9..6 newest-first", entries)
	}
	if got := s.Find(ids[0]); got != nil {
		t.Fatalf("evicted id still found: %v", got)
	}
}

// TestTraceStoreFindMultiRecord pins the span-collector model: the request
// envelope and the engine's query record share one trace id and Find
// returns both, oldest first.
func TestTraceStoreFindMultiRecord(t *testing.T) {
	s := NewTraceStore(16)
	id := NewTraceID()
	s.Offer(TraceRecord{ID: id, Kind: "query", Status: TraceOK}, true, nil)
	s.Offer(TraceRecord{ID: id, Kind: "topk", Status: TraceOK}, true, nil)
	s.Offer(TraceRecord{ID: NewTraceID(), Kind: "query", Status: TraceOK}, true, nil)
	got := s.Find(id)
	if len(got) != 2 || got[0].Kind != "query" || got[1].Kind != "topk" {
		t.Fatalf("Find(%s) = %+v, want [query topk] oldest-first", id, got)
	}
}

// TestTraceStoreRace hammers the store from concurrent writers and readers;
// run under -race this is the locking regression test.
func TestTraceStoreRace(t *testing.T) {
	s := NewTraceStore(32)
	s.SetHeadRate(0.5)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	shared := NewTraceID()
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				st := TraceOK
				if i%3 == 0 {
					st = TraceError
				}
				s.Offer(TraceRecord{ID: NewTraceID(), Time: time.Now(), Status: st, Latency: time.Duration(i)}, false, nil)
				s.Offer(TraceRecord{ID: shared, Time: time.Now(), Status: TraceOK}, true, nil)
				if i%10 == 0 {
					s.SetHeadRate(float64(i%5) / 5)
					s.SetSlowThreshold(time.Duration(i) * time.Millisecond)
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = s.Entries()
				_ = s.Find(shared)
				_ = s.Stats()
				_ = s.Len()
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	st := s.Stats()
	if st.Offered != 4*500*2 {
		t.Fatalf("Offered = %d, want %d", st.Offered, 4*500*2)
	}
	if st.Kept != st.KeptForced+st.KeptTail+st.KeptSlow+st.KeptHead {
		t.Fatalf("Kept %d is not the sum of its reasons: %+v", st.Kept, st)
	}
	if uint64(st.Resident) != st.Kept-st.Evicted {
		t.Fatalf("Resident %d != Kept %d - Evicted %d", st.Resident, st.Kept, st.Evicted)
	}
	if s.Len() != 32 {
		t.Fatalf("Len = %d, want full capacity 32", s.Len())
	}
}

// TestTraceStoreSlowThresholdOneLoad pins the single read of the slow
// threshold: with head sampling off, a 1ns OK record is rejected under both
// 0 (disabled) and 1h, so an Offer that answers true while another
// goroutine flips between them has mixed the two values.
func TestTraceStoreSlowThresholdOneLoad(t *testing.T) {
	s := NewTraceStore(8)
	s.SetHeadRate(0)
	stop := make(chan struct{})
	var flipper sync.WaitGroup
	flipper.Add(1)
	go func() {
		defer flipper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.SetSlowThreshold(0)
			s.SetSlowThreshold(time.Hour)
		}
	}()
	id := NewTraceID()
	for i := 0; i < 1_000_000; i++ {
		if s.Offer(TraceRecord{ID: id, Status: TraceOK, Latency: time.Nanosecond}, false, nil) {
			close(stop)
			flipper.Wait()
			t.Fatalf("Offer kept a 1ns record at iteration %d: the threshold was read twice", i)
		}
	}
	close(stop)
	flipper.Wait()
}
