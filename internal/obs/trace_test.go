package obs

import (
	"strings"
	"testing"
	"time"
)

// TestTraceNilSafe: instrumented code calls trace methods unconditionally on
// a possibly-nil trace; none of them may panic.
func TestTraceNilSafe(t *testing.T) {
	var tr *QueryTrace
	tr.Step(StageSearch)
	tr.Carry(StageCrack)
	tr.Finish()
	if got := tr.String(); got != "<no trace>" {
		t.Fatalf("String = %q", got)
	}
}

func TestTraceSpansSumToWall(t *testing.T) {
	tr := StartTrace()
	time.Sleep(2 * time.Millisecond)
	tr.Step(StageValidate)
	time.Sleep(3 * time.Millisecond)
	tr.Step(StageSearch)
	tr.Finish()

	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	if tr.Spans[0].Stage != StageValidate || tr.Spans[1].Stage != StageSearch {
		t.Fatalf("stages = %v, %v", tr.Spans[0].Stage, tr.Spans[1].Stage)
	}
	var sum time.Duration
	for _, s := range tr.Spans {
		if s.Dur <= 0 {
			t.Fatalf("span %s has non-positive duration %v", s.Stage, s.Dur)
		}
		sum += s.Dur
	}
	if tr.Wall < sum {
		t.Fatalf("wall %v < span sum %v", tr.Wall, sum)
	}
	// Stages are contiguous: the only unaccounted time is between the last
	// Step and Finish, which here is a few statements.
	if slack := tr.Wall - sum; slack > 50*time.Millisecond {
		t.Fatalf("wall %v exceeds span sum %v by %v", tr.Wall, sum, slack)
	}
	// Spans are contiguous: each starts where the previous ended.
	if tr.Spans[0].Start != 0 {
		t.Fatalf("first span starts at %v", tr.Spans[0].Start)
	}
	if got, want := tr.Spans[1].Start, tr.Spans[0].Start+tr.Spans[0].Dur; got != want {
		t.Fatalf("second span starts at %v, want %v", got, want)
	}
}

// TestTraceCarry: time set aside with Carry lands in the next span of the
// named stage, adds no span of its own, and leaves the sum equal to the wall.
func TestTraceCarry(t *testing.T) {
	tr := StartTrace()
	tr.Step(StageCache)
	time.Sleep(5 * time.Millisecond)
	tr.Carry(StageCrack)
	tr.Step(StageValidate)
	tr.Step(StageSearch)
	tr.Step(StageCrack)
	tr.Step(StageCrack) // the carried time is spent once
	tr.Finish()

	var stages []string
	var sum time.Duration
	for _, s := range tr.Spans {
		stages = append(stages, s.Stage)
		sum += s.Dur
	}
	if got, want := strings.Join(stages, ","), "cache,validate,search,crack,crack"; got != want {
		t.Fatalf("stages = %s, want %s", got, want)
	}
	validate, crack, again := tr.Spans[1], tr.Spans[3], tr.Spans[4]
	if crack.Dur < 5*time.Millisecond {
		t.Fatalf("crack span %v does not include the 5ms carried into it", crack.Dur)
	}
	if validate.Dur >= 5*time.Millisecond || again.Dur >= 5*time.Millisecond {
		t.Fatalf("carried time leaked: validate %v, second crack %v", validate.Dur, again.Dur)
	}
	if sum > tr.Wall {
		t.Fatalf("span sum %v exceeds wall %v", sum, tr.Wall)
	}
}

func TestTraceString(t *testing.T) {
	tr := StartTrace()
	tr.Step(StageCache)
	tr.Step(StageSearch)
	tr.Finish()
	s := tr.String()
	if !strings.Contains(s, StageCache) || !strings.Contains(s, StageSearch) {
		t.Fatalf("String = %q, missing stage names", s)
	}
}
