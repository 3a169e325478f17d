package walfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"vkgraph/internal/faultio"
)

// memFile is an in-memory SyncFile counting durability barriers.
type memFile struct {
	bytes.Buffer
	syncs   int
	syncErr error
}

func (m *memFile) Sync() error {
	m.syncs++
	return m.syncErr
}

func appendN(t *testing.T, w io.Writer, n int) [][]byte {
	t.Helper()
	payloads := make([][]byte, n)
	for i := range payloads {
		p := bytes.Repeat([]byte{byte(i + 1)}, i*7+1)
		payloads[i] = p
		if _, err := AppendRecord(w, uint8(i%4+1), p); err != nil {
			t.Fatalf("AppendRecord %d: %v", i, err)
		}
	}
	return payloads
}

func scanAll(t *testing.T, b []byte) ([]Record, int64, error) {
	t.Helper()
	sc, err := NewScanner(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	var recs []Record
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return recs, sc.CleanOffset(), nil
		}
		if err != nil {
			return recs, sc.CleanOffset(), err
		}
		recs = append(recs, rec)
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 42); err != nil {
		t.Fatal(err)
	}
	want := appendN(t, &buf, 5)

	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewScanner: %v", err)
	}
	if sc.Gen() != 42 {
		t.Fatalf("Gen = %d, want 42", sc.Gen())
	}
	recs, clean, scanErr := scanAll(t, buf.Bytes())
	if scanErr != nil {
		t.Fatalf("scan: %v", scanErr)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Payload, want[i]) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if rec.Kind != uint8(i%4+1) {
			t.Fatalf("record %d kind = %d", i, rec.Kind)
		}
	}
	if clean != int64(buf.Len()) {
		t.Fatalf("CleanOffset = %d, want full length %d", clean, buf.Len())
	}
}

func TestEmptyLog(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 7); err != nil {
		t.Fatal(err)
	}
	recs, clean, err := scanAll(t, buf.Bytes())
	if err != nil || len(recs) != 0 {
		t.Fatalf("empty log: recs=%d err=%v", len(recs), err)
	}
	if clean != HeaderLen {
		t.Fatalf("CleanOffset = %d, want %d", clean, HeaderLen)
	}
}

func TestBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     []byte("VKG"),
		"bad magic": append([]byte("NOTAWAL\x00"), make([]byte, 10)...),
	}
	for name, b := range cases {
		if _, err := NewScanner(bytes.NewReader(b)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	// Any other version, older or newer: structurally fine, semantically
	// unreadable.
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, version := range []uint16{0, Version - 1, Version + 1, 0xFFFF} {
		binary.LittleEndian.PutUint16(b[MagicLen():], version)
		if _, err := NewScanner(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
			t.Errorf("version %d: err = %v, want ErrVersion", version, err)
		}
	}
}

// MagicLen re-exports the header magic length for tests without dragging
// snapfmt in as a test dependency.
func MagicLen() int { return len(Magic) }

func TestTornTailTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 1); err != nil {
		t.Fatal(err)
	}
	appendN(t, &buf, 3)
	cleanLen := int64(buf.Len())
	// A fourth record torn mid-payload, as a crash mid-append leaves it.
	var tail bytes.Buffer
	if _, err := AppendRecord(&tail, 2, bytes.Repeat([]byte{0xAB}, 100)); err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < tail.Len(); cut += 17 {
		b := append(append([]byte(nil), buf.Bytes()...), tail.Bytes()[:cut]...)
		recs, clean, err := scanAll(t, b)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: err = %v, want ErrCorrupt", cut, err)
		}
		if len(recs) != 3 {
			t.Fatalf("cut %d: got %d clean records, want 3", cut, len(recs))
		}
		if clean != cleanLen {
			t.Fatalf("cut %d: CleanOffset = %d, want %d", cut, clean, cleanLen)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 1); err != nil {
		t.Fatal(err)
	}
	appendN(t, &buf, 4)
	full := buf.Bytes()

	// Flip one byte in every position past the header; the scan must
	// never return a record with a wrong payload and must stop at (or
	// before) the damaged record's boundary.
	pristine, _, _ := scanAll(t, full)
	for off := HeaderLen; off < len(full); off++ {
		b := append([]byte(nil), full...)
		b[off] ^= 0x40
		recs, clean, err := scanAll(t, b)
		if err == nil {
			// The flip landed in a length field in a way that still
			// framed validly? Not possible with CRC intact — every
			// record returned must match the pristine decode.
			if len(recs) != len(pristine) {
				t.Fatalf("off %d: clean scan but %d records", off, len(recs))
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("off %d: err = %v, want ErrCorrupt", off, err)
		}
		for i, rec := range recs {
			if !bytes.Equal(rec.Payload, pristine[i].Payload) {
				t.Fatalf("off %d: surviving record %d has damaged payload", off, i)
			}
		}
		if clean > int64(len(full)) {
			t.Fatalf("off %d: CleanOffset %d beyond file", off, clean)
		}
	}
}

func TestOversizedLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, 1); err != nil {
		t.Fatal(err)
	}
	// Forged frame claiming MaxRecordLen+1 bytes: must be rejected by the
	// length guard, not attempted as an allocation.
	frame := []byte{1, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	buf.Write(frame)
	_, clean, err := scanAll(t, buf.Bytes())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if clean != HeaderLen {
		t.Fatalf("CleanOffset = %d, want %d", clean, HeaderLen)
	}

	if _, err := AppendRecord(io.Discard, 1, make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("AppendRecord accepted an oversized payload")
	}
}

func TestWriterSyncPolicy(t *testing.T) {
	f := &memFile{}
	w, err := NewWriter(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	if f.syncs != 1 {
		t.Fatalf("header syncs = %d, want 1", f.syncs)
	}
	// Clean writer: Sync is a no-op.
	if synced, err := w.Sync(); synced || err != nil {
		t.Fatalf("clean Sync = (%v, %v), want (false, nil)", synced, err)
	}
	if _, err := w.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if synced, err := w.Sync(); !synced || err != nil {
		t.Fatalf("dirty Sync = (%v, %v), want (true, nil)", synced, err)
	}
	if synced, _ := w.Sync(); synced {
		t.Fatal("second Sync still dirty")
	}
	if f.syncs != 2 {
		t.Fatalf("total syncs = %d, want 2", f.syncs)
	}

	// Verify the written stream round-trips.
	recs, _, err := scanAll(t, f.Bytes())
	if err != nil || len(recs) != 1 || string(recs[0].Payload) != "x" {
		t.Fatalf("round-trip: recs=%v err=%v", recs, err)
	}
}

func TestWriterFailedAppendStaysClean(t *testing.T) {
	var under memFile
	if err := WriteHeader(&under, 1); err != nil {
		t.Fatal(err)
	}
	// Fail after the header: the first Append tears mid-frame.
	fw := &faultio.FailingWriter{W: &under.Buffer, N: 4}
	w := ResumeWriter(struct {
		io.Writer
		*memFile
	}{fw, &under})
	if _, err := w.Append(1, bytes.Repeat([]byte{1}, 64)); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append err = %v, want injected", err)
	}
	// The torn bytes are on "disk", but the scanner recovers the clean
	// prefix (just the header).
	recs, clean, err := scanAll(t, under.Bytes())
	if !errors.Is(err, ErrCorrupt) || len(recs) != 0 {
		t.Fatalf("after torn append: recs=%d err=%v", len(recs), err)
	}
	if clean != HeaderLen {
		t.Fatalf("CleanOffset = %d, want %d", clean, HeaderLen)
	}
}

// FuzzWALLoad drives the scanner over arbitrary bytes: it must never panic,
// never return an error other than the typed sentinels, and CleanOffset
// must stay within the input.
func FuzzWALLoad(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteHeader(&seed, 3)
	_, _ = AppendRecord(&seed, 1, []byte{1, 2, 3, 4})
	_, _ = AppendRecord(&seed, 2, nil)
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3])
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := NewScanner(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("NewScanner: untyped error %v", err)
			}
			return
		}
		for {
			_, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Next: untyped error %v", err)
				}
				break
			}
		}
		if off := sc.CleanOffset(); off < HeaderLen || off > int64(len(data)) {
			t.Fatalf("CleanOffset %d outside [%d, %d]", off, HeaderLen, len(data))
		}
	})
}
