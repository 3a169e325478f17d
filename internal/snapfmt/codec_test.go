package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

func TestCodecRoundTrip(t *testing.T) {
	var w Writer
	w.U8(7)
	w.U32(1 << 31)
	w.U64(math.MaxUint64)
	w.I32(-5)
	w.I64(math.MinInt64)
	w.F64(math.Copysign(0, -1))
	w.Bool(true)
	w.Str("héllo")
	w.Strings([]string{"", "b"})
	w.I32s([]int32{-1, 0, 1})
	w.F64s([]float64{math.Inf(1), 2.5})
	w.I32s(nil)

	r := NewReader(w.Bytes())
	if r.U8() != 7 || r.U32() != 1<<31 || r.U64() != math.MaxUint64 || r.I32() != -5 || r.I64() != math.MinInt64 {
		t.Fatal("integers changed in the round trip")
	}
	if f := r.F64(); f != 0 || !math.Signbit(f) {
		t.Fatalf("-0 came back as %v", f)
	}
	if !r.Bool() || r.Str() != "héllo" || !slices.Equal(r.Strings(), []string{"", "b"}) {
		t.Fatal("bool or strings changed in the round trip")
	}
	if !slices.Equal(r.I32s(), []int32{-1, 0, 1}) || !slices.Equal(r.F64s(), []float64{math.Inf(1), 2.5}) || r.I32s() != nil {
		t.Fatal("lists changed in the round trip")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderFailures: a short read, a bad bool, trailing bytes and a
// caller's own check all fail with ErrCorrupt, and the first failure
// sticks.
func TestReaderFailures(t *testing.T) {
	for name, read := range map[string]func(r *Reader){
		"short":     func(r *Reader) { r.U64() },
		"bad bool":  func(r *Reader) { r.Bool() },
		"trailing":  func(r *Reader) { r.U8() },
		"by caller": func(r *Reader) { r.Fail("value %d out of range", 9) },
	} {
		r := NewReader([]byte{2, 0, 0})
		read(r)
		if err := r.Finish(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Finish = %v, want ErrCorrupt", name, err)
		}
		if r.U32() != 0 {
			t.Errorf("%s: a read after a failure returned data", name)
		}
	}
}

// TestCountPastPayload: a list count that the bytes left cannot hold fails
// with ErrCorrupt before anything is sized by it, for every list reader.
func TestCountPastPayload(t *testing.T) {
	for name, read := range map[string]func(r *Reader) int{
		"Count":   func(r *Reader) int { return r.Count(1) },
		"Str":     func(r *Reader) int { return len(r.Str()) },
		"Strings": func(r *Reader) int { return len(r.Strings()) },
		"I32s":    func(r *Reader) int { return len(r.I32s()) },
		"F64s":    func(r *Reader) int { return len(r.F64s()) },
	} {
		payload := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
		payload = append(payload, bytes.Repeat([]byte{1}, 64)...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewReader(payload)
		n := read(r)
		runtime.ReadMemStats(&after)
		if n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: read %d entries, err %v; want none and ErrCorrupt", name, n, r.Err())
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 1<<12 {
			t.Errorf("%s: a %d-byte payload allocated %d bytes", name, len(payload), got)
		}
	}
}
