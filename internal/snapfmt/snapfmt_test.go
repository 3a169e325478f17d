package snapfmt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

const testMagic = "TESTSNP\x00"

func frame(t *testing.T, sections ...[]byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, testMagic, 1, uint16(len(sections))); err != nil {
		t.Fatal(err)
	}
	for i, p := range sections {
		if err := WriteSection(&buf, uint8(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	return &buf
}

func TestRoundTrip(t *testing.T) {
	buf := frame(t, []byte("graph payload"), []byte{}, []byte("tree payload"))
	version, n, err := ReadHeader(buf, testMagic, 1, 1)
	if err != nil || version != 1 || n != 3 {
		t.Fatalf("ReadHeader = (%d, %d, %v)", version, n, err)
	}
	want := [][]byte{[]byte("graph payload"), {}, []byte("tree payload")}
	for i := 0; i < n; i++ {
		kind, payload, err := ReadSection(buf)
		if err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
		if kind != uint8(i+1) || !bytes.Equal(payload, want[i]) {
			t.Fatalf("section %d = (kind %d, %q)", i, kind, payload)
		}
	}
}

func TestBadMagic(t *testing.T) {
	buf := frame(t, []byte("x"))
	b := buf.Bytes()
	b[0] ^= 0xFF
	_, _, err := ReadHeader(bytes.NewReader(b), testMagic, 1, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestEmptyAndTruncatedHeader(t *testing.T) {
	if _, _, err := ReadHeader(bytes.NewReader(nil), testMagic, 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty stream: got %v, want ErrCorrupt", err)
	}
	buf := frame(t, []byte("x"))
	if _, _, err := ReadHeader(bytes.NewReader(buf.Bytes()[:5]), testMagic, 1, 1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated header: got %v, want ErrCorrupt", err)
	}
}

func TestFutureVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, testMagic, 9, 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadHeader(&buf, testMagic, 1, 1)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestChecksumMismatchConsumesFrame(t *testing.T) {
	buf := frame(t, []byte("first payload"), []byte("second payload"))
	raw := buf.Bytes()
	// Flip a payload byte of section 1 (header is 12 bytes, frame header 9).
	raw[12+9+3] ^= 0x40
	r := bytes.NewReader(raw)
	if _, _, err := ReadHeader(r, testMagic, 1, 1); err != nil {
		t.Fatal(err)
	}
	kind, payload, err := ReadSection(r)
	if !errors.Is(err, ErrCorrupt) || kind != 1 {
		t.Fatalf("corrupt section = (kind %d, err %v), want kind 1 + ErrCorrupt", kind, err)
	}
	if payload == nil {
		t.Fatal("corrupt section payload not returned")
	}
	// The stream must still be positioned at section 2.
	kind, payload, err = ReadSection(r)
	if err != nil || kind != 2 || string(payload) != "second payload" {
		t.Fatalf("next section = (kind %d, %q, %v), want intact section 2", kind, payload, err)
	}
}

func TestTruncatedSection(t *testing.T) {
	buf := frame(t, []byte("some payload that gets cut"))
	raw := buf.Bytes()[:buf.Len()-5]
	r := bytes.NewReader(raw)
	if _, _, err := ReadHeader(r, testMagic, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSection(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestInsaneLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSection(&buf, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	binary.LittleEndian.PutUint32(raw[1:5], 1<<31) // larger than MaxSectionLen
	if _, _, err := ReadSection(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt before any huge allocation", err)
	}
}
