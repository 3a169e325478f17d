package embedding

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"runtime"
	"testing"

	"vkgraph/internal/snapfmt"
)

// FuzzModelLoad drives Decode over arbitrary payloads, below the checksum
// that guards them in a file or snapshot. It must never panic, and every
// failure wraps snapfmt.ErrCorrupt; a model it accepts has whole rows and
// encodes back to the payload it came from.
func FuzzModelLoad(f *testing.F) {
	m := &Model{Dim: 2, Entities: []float64{1, 2, 3, 4, 5, 6}, Rels: []float64{-1, math.NaN()}, NormUsed: L1}
	var w snapfmt.Writer
	m.Encode(&w)
	f.Add(w.Bytes())
	f.Add(w.Bytes()[:len(w.Bytes())-3])
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(m); err != nil {
		f.Fatal(err)
	}
	f.Add(old.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if !errors.Is(err, snapfmt.ErrCorrupt) {
				t.Fatalf("Decode = %v, want an error wrapping ErrCorrupt", err)
			}
			return
		}
		if m.Dim <= 0 || len(m.Entities)%m.Dim != 0 || len(m.Rels)%m.Dim != 0 {
			t.Fatalf("Decode accepted a model of %d and %d values in rows of %d", len(m.Entities), len(m.Rels), m.Dim)
		}
		var again snapfmt.Writer
		m.Encode(&again)
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("Decode and Encode changed the payload")
		}
	})
}

// TestModelCountPastPayload: a row count that the bytes left cannot hold
// fails with ErrCorrupt before anything is sized by it.
func TestModelCountPastPayload(t *testing.T) {
	m := &Model{Dim: 2, Entities: []float64{1, 2, 3, 4}, Rels: []float64{5, 6}}
	var w snapfmt.Writer
	m.Encode(&w)
	payload := w.Bytes()
	binary.LittleEndian.PutUint32(payload[5:], 1<<28) // the entity value count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Decode = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("Decode of a %d-byte payload allocated %d bytes", len(payload), got)
	}
}

// TestGobModelFileRefused: a model file from before the model had a
// header of its own (a bare gob stream) is refused with ErrCorrupt.
func TestGobModelFileRefused(t *testing.T) {
	var old bytes.Buffer
	if err := gob.NewEncoder(&old).Encode(&Model{Dim: 1, Entities: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&old); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Load of a gob model = %v, want ErrCorrupt", err)
	}
}
