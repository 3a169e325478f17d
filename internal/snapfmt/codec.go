package snapfmt

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The payload codec every section and WAL record body uses: fixed-width
// little-endian scalars, and lists as a uint32 count followed by their
// entries inline. A string is a list of bytes. Every value is encoded
// explicitly, so the bytes do not depend on the machine.

// Writer appends values to a payload. The zero value is ready to use.
type Writer struct{ buf []byte }

// Bytes returns the payload written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Grow makes room for n more bytes.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

func (w *Writer) U8(v uint8)    { w.buf = append(w.buf, v) }
func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I32(v int32)   { w.U32(uint32(v)) }
func (w *Writer) I64(v int64)   { w.U64(uint64(v)) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Writer) Bool(v bool)   { w.U8(b2u(v)) }
func (w *Writer) Count(n int)   { w.U32(uint32(n)) }
func (w *Writer) Str(s string)  { w.Count(len(s)); w.buf = append(w.buf, s...) }

func b2u(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// Strings writes a count and then each string.
func (w *Writer) Strings(ss []string) {
	w.Count(len(ss))
	for _, s := range ss {
		w.Str(s)
	}
}

// I32s writes a count and then each value.
func (w *Writer) I32s(v []int32) {
	w.Count(len(v))
	w.Grow(4 * len(v))
	for _, x := range v {
		w.I32(x)
	}
}

// F64s writes a count and then each value.
func (w *Writer) F64s(v []float64) {
	w.Count(len(v))
	w.Grow(8 * len(v))
	for _, x := range v {
		w.F64(x)
	}
}

// Reader decodes a payload written by Writer. Its first failure is sticky:
// every later read returns zero values, and Err and Finish report it. Every
// failure wraps ErrCorrupt.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b. The decoded values never alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a failure found by the caller's own checks (a value out of
// range, an inconsistent count) unless one is recorded already. It wraps
// ErrCorrupt.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("snapfmt: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
		r.b = nil
	}
}

// Finish returns the first failure, or ErrCorrupt if bytes are left over.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.b) > 0 {
		r.Fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// next consumes n bytes, or fails and returns nil if fewer are left.
func (r *Reader) next(n int) []byte {
	if n > len(r.b) {
		r.Fail("%d bytes wanted, %d left", n, len(r.b))
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.next(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.next(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.next(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) I32() int32   { return int32(r.U32()) }
func (r *Reader) I64() int64   { return int64(r.U64()) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0, 1:
		return v == 1
	default:
		r.Fail("bool byte %d", v)
		return false
	}
}

// Count reads a list count whose entries take at least width bytes each,
// and fails (returning 0) if that many entries cannot fit in the bytes
// left. A caller that sizes an allocation by the count is therefore bounded
// by the payload's own length.
func (r *Reader) Count(width int) int {
	n := int(r.U32())
	if r.err == nil && n > len(r.b)/width {
		r.Fail("count %d of %d-byte entries, %d bytes left", n, width, len(r.b))
		return 0
	}
	return n
}

// Str reads a string: a count and then its bytes.
func (r *Reader) Str() string { return string(r.next(r.Count(1))) }

// Strings reads a count and then each string.
func (r *Reader) Strings() []string {
	n := r.Count(4)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = r.Str()
	}
	return ss
}

// I32s reads a count and then each value; an empty list is nil.
func (r *Reader) I32s() []int32 {
	p := r.next(4 * r.Count(4))
	if len(p) == 0 {
		return nil
	}
	v := make([]int32, len(p)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return v
}

// F64s reads a count and then each value; an empty list is nil.
func (r *Reader) F64s() []float64 {
	p := r.next(8 * r.Count(8))
	if len(p) == 0 {
		return nil
	}
	v := make([]float64, len(p)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return v
}
