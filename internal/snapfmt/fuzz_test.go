package snapfmt

import (
	"bytes"
	"errors"
	"testing"
)

// fuzzMagic mirrors the engine snapshot magic (internal/core/persist.go)
// so the seed corpus exercises the same header path production uses.
const fuzzMagic = "VKGSNAP\x00"

// FuzzSnapshotLoad drives the full decode path — header, then every
// section the header promises — over arbitrary bytes. The decoder's
// contract under fuzzing:
//
//   - never panic and never allocate unboundedly (MaxSectionLen gates the
//     payload allocation before it happens);
//   - every failure is errors.Is-matchable to ErrCorrupt or ErrVersion,
//     never a bare error the caller cannot classify;
//   - a checksum mismatch consumes the whole frame, so reading can
//     continue at the next section boundary.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed 1: a valid two-section snapshot.
	var good bytes.Buffer
	if err := WriteHeader(&good, fuzzMagic, 2, 2); err != nil {
		f.Fatal(err)
	}
	if err := WriteSection(&good, 1, []byte("graph payload")); err != nil {
		f.Fatal(err)
	}
	if err := WriteSection(&good, 2, bytes.Repeat([]byte{0xAB}, 256)); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())

	// Seed 2: valid header, corrupted section checksum.
	flipped := append([]byte(nil), good.Bytes()...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)

	// Seed 2b: a version-3 snapshot with the engine's four sections — the
	// shape current engine snapshots have since packed storage landed.
	var v3 bytes.Buffer
	if err := WriteHeader(&v3, fuzzMagic, 3, 4); err != nil {
		f.Fatal(err)
	}
	for kind := uint8(1); kind <= 4; kind++ {
		if err := WriteSection(&v3, kind, bytes.Repeat([]byte{kind}, 64)); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(v3.Bytes())

	// Seed 3: version from the future.
	var future bytes.Buffer
	if err := WriteHeader(&future, fuzzMagic, 0xFFFF, 0); err != nil {
		f.Fatal(err)
	}
	f.Add(future.Bytes())

	// Seed 4: truncated header, wrong magic, empty input.
	f.Add([]byte(fuzzMagic))
	f.Add([]byte("NOTASNAP\x01\x00\x01\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		_, sections, err := ReadHeader(r, fuzzMagic, 1, 3)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Fatalf("ReadHeader returned unclassified error: %v", err)
			}
			return
		}
		for i := 0; i < sections; i++ {
			before := r.Len()
			kind, payload, err := ReadSection(r)
			if err == nil {
				continue
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadSection %d (kind %d) returned unclassified error: %v", i, kind, err)
			}
			// A checksum mismatch hands back the payload and leaves the
			// stream at the next frame: the frame's bytes must all be
			// consumed. Truncation errors legitimately drain the reader.
			if payload != nil {
				consumed := before - r.Len()
				if want := 9 + len(payload); consumed != want {
					t.Fatalf("checksum-mismatch frame consumed %d bytes, want %d", consumed, want)
				}
				continue
			}
			return // short or oversized frame: the stream is unusable
		}
	})
}
