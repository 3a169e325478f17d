package obs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestNilReceiversAreNoOps holds the contract the untraced hot paths rely
// on: a nil *QueryTrace or *TraceStore is valid, and every exported method
// on it is a no-op. Each method, including any added later, is called on a
// nil receiver twice — with zero-valued arguments, then with non-zero ones,
// so a guard short-circuited by an argument check still has to hold. It
// must not panic and must return zero values; String renders "<no trace>".
func TestNilReceiversAreNoOps(t *testing.T) {
	methods := 0
	for _, recv := range []any{(*QueryTrace)(nil), (*TraceStore)(nil)} {
		rv := reflect.ValueOf(recv)
		for i := 0; i < rv.NumMethod(); i++ {
			m, name := rv.Method(i), fmt.Sprintf("(%T).%s", recv, rv.Type().Method(i).Name)
			methods++
			for _, fill := range []bool{false, true} {
				args := make([]reflect.Value, m.Type().NumIn())
				for j := range args {
					args[j] = sampleArg(m.Type().In(j), fill)
				}
				out := callNoPanic(t, name, m, args)
				for j, v := range out {
					if name == "(*obs.QueryTrace).String" {
						if got := v.String(); got != "<no trace>" {
							t.Errorf("%s = %q, want %q", name, got, "<no trace>")
						}
					} else if !v.IsZero() {
						t.Errorf("%s result %d = %v on a nil receiver, want zero", name, j, v)
					}
				}
			}
		}
	}
	if methods < 21 {
		t.Fatalf("walked %d methods, want at least the 21 of QueryTrace and TraceStore", methods)
	}
}

// sampleArg is a zero value of typ, or with fill a non-zero one where typ
// is a number, bool, string or array of those.
func sampleArg(typ reflect.Type, fill bool) reflect.Value {
	v := reflect.New(typ).Elem()
	if !fill {
		return v
	}
	switch typ.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString(TraceError)
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			v.Index(i).Set(sampleArg(typ.Elem(), true))
		}
	}
	return v
}

func callNoPanic(t *testing.T, name string, m reflect.Value, args []reflect.Value) (out []reflect.Value) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s panicked on a nil receiver: %v", name, r)
		}
	}()
	return m.Call(args)
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
