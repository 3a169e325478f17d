package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"testing"

	"vkgraph/internal/snapfmt"
)

// savedEngine builds a warmed engine and returns it with its snapshot bytes.
func savedEngine(t *testing.T, mode IndexMode) (*Engine, []byte) {
	t.Helper()
	eng, _ := testEngine(t, mode, defaultTestParams())
	for i := 0; i < 6; i++ {
		if _, err := eng.TopK(DirTail, 0, 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return eng, buf.Bytes()
}

// sectionSpan locates a section's payload inside a snapshot: the container
// is a 12-byte header followed by kind(1)|len(4)|crc(4)|payload frames.
func sectionSpan(t *testing.T, snap []byte, kind uint8) (start, length int) {
	t.Helper()
	off := snapfmt.MagicLen + 4
	for off+9 <= len(snap) {
		k := snap[off]
		n := int(binary.LittleEndian.Uint32(snap[off+1 : off+5]))
		if k == kind {
			return off + 9, n
		}
		off += 9 + n
	}
	t.Fatalf("section %d not found in %d-byte snapshot", kind, len(snap))
	return 0, 0
}

func TestLoadEngineRoundTrip(t *testing.T) {
	eng, snap := savedEngine(t, Crack)
	got, err := LoadEngine(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadEngine: %v", err)
	}
	if got.IndexRebuilt() {
		t.Fatal("clean load reported a rebuilt index")
	}
	if got.Mode() != Crack {
		t.Fatalf("mode %v after round trip, want Crack", got.Mode())
	}
	want, err := eng.TopK(DirTail, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.TopK(DirTail, 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Predictions {
		if res.Predictions[i].Entity != want.Predictions[i].Entity {
			t.Fatalf("answers diverged after round trip: %v vs %v", res.Predictions, want.Predictions)
		}
	}
}

func TestLoadEngineTypedErrors(t *testing.T) {
	_, snap := savedEngine(t, Crack)
	graphStart, graphLen := sectionSpan(t, snap, secGraph)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, snapfmt.ErrCorrupt},
		{"garbage", []byte("definitely not a snapshot"), snapfmt.ErrCorrupt},
		{"truncated in graph", snap[:graphStart+graphLen/2], snapfmt.ErrCorrupt},
	}
	for _, c := range cases {
		if _, err := LoadEngine(bytes.NewReader(c.data)); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is %v", c.name, err, c.want)
		}
	}

	// Bumped format version.
	bad := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(bad[snapfmt.MagicLen:], engineVersion+1)
	if _, err := LoadEngine(bytes.NewReader(bad)); !errors.Is(err, snapfmt.ErrVersion) {
		t.Errorf("future version: got %v, want errors.Is ErrVersion", err)
	}

	// Bit rot in an unrecoverable section (the graph) fails the load.
	bad = append([]byte(nil), snap...)
	bad[graphStart+graphLen/3] ^= 0x10
	if _, err := LoadEngine(bytes.NewReader(bad)); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("corrupt graph: got %v, want errors.Is ErrCorrupt", err)
	}

	// Same for the meta section.
	metaStart, _ := sectionSpan(t, snap, secMeta)
	bad = append([]byte(nil), snap...)
	bad[metaStart] ^= 0x10
	if _, err := LoadEngine(bytes.NewReader(bad)); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Errorf("corrupt meta: got %v, want errors.Is ErrCorrupt", err)
	}
}

// Damage confined to the index section must degrade, not fail: the graph and
// model are intact, so the engine comes up with a cold index and stays
// correct — only the workload-fitted shape is lost.
func TestLoadEngineCorruptIndexDegrades(t *testing.T) {
	for _, mode := range []IndexMode{Crack, Bulk} {
		eng, snap := savedEngine(t, mode)
		treeStart, treeLen := sectionSpan(t, snap, secTree)

		for name, mutate := range map[string]func([]byte) []byte{
			"bit flip":  func(b []byte) []byte { b[treeStart+treeLen/2] ^= 0x20; return b },
			"truncated": func(b []byte) []byte { return b[:treeStart+treeLen/2] },
			"cut frame": func(b []byte) []byte { return b[:treeStart-4] },
		} {
			got, err := LoadEngine(bytes.NewReader(mutate(append([]byte(nil), snap...))))
			if err != nil {
				t.Fatalf("mode %v, %s: load failed instead of degrading: %v", mode, name, err)
			}
			if !got.IndexRebuilt() {
				t.Fatalf("mode %v, %s: degraded load not reported", mode, name)
			}
			if got.Mode() != mode {
				t.Fatalf("mode %v, %s: mode became %v", mode, name, got.Mode())
			}
			want, err := eng.TopKNoIndex(DirTail, 1, 0, 3)
			if err != nil {
				t.Fatal(err)
			}
			res, err := got.TopK(DirTail, 1, 0, 3)
			if err != nil {
				t.Fatalf("mode %v, %s: query on degraded engine: %v", mode, name, err)
			}
			if len(res.Predictions) != len(want.Predictions) {
				t.Fatalf("mode %v, %s: %d predictions, want %d",
					mode, name, len(res.Predictions), len(want.Predictions))
			}
		}
	}
}

// TestOldSnapshotVersionsRejected forges version-1 to version-4 headers on
// an otherwise valid snapshot: the retired formats must be refused with the
// typed version error, never misread as version 5.
func TestOldSnapshotVersionsRejected(t *testing.T) {
	eng, _ := testEngine(t, Crack, defaultTestParams())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, version := range []uint16{1, 2, 3, 4} {
		snap := append([]byte(nil), buf.Bytes()...)
		binary.LittleEndian.PutUint16(snap[snapfmt.MagicLen:], version)
		if _, err := LoadEngine(bytes.NewReader(snap)); !errors.Is(err, snapfmt.ErrVersion) {
			t.Fatalf("LoadEngine of a version-%d header = %v, want ErrVersion", version, err)
		}
	}
}

// TestRetiredParamsSnapshotRefused: a snapshot as version 4 wrote it —
// sections in gob, its Params still carrying fields retired since (the
// float32 mirror, the shard count, Algorithm 2's options) — is refused by
// its header with ErrVersion, as is a version-5 header (the graph section
// without its stored layout); the same gob meta under the current header is
// ErrCorrupt, not a misread engine.
func TestRetiredParamsSnapshotRefused(t *testing.T) {
	eng, _ := testEngine(t, Crack, defaultTestParams())
	var buf bytes.Buffer
	if err := eng.Save(&buf); err != nil {
		t.Fatal(err)
	}
	type retiredOptions struct {
		LeafCap, Fanout, SplitChoices, MaxCandidatePops int
	}
	type retiredParams struct {
		Alpha        int
		Eps, PTau    float64
		Seed         int64
		Index        retiredOptions
		Attrs        []string
		Shards       int
		PackedCoords bool
	}
	type retiredMeta struct {
		Params   retiredParams
		Mode     IndexMode
		WalGen   uint64
		EffAttrs []string
	}
	p := eng.Params()
	var gobMeta bytes.Buffer
	err := gob.NewEncoder(&gobMeta).Encode(retiredMeta{
		Params: retiredParams{Alpha: p.Alpha, Eps: p.Eps, PTau: p.PTau, Seed: p.Seed,
			Index: retiredOptions{LeafCap: p.Index.LeafCap, Fanout: p.Index.Fanout, SplitChoices: 2, MaxCandidatePops: 512},
			Attrs: p.Attrs, Shards: 2, PackedCoords: true},
		EffAttrs: p.Attrs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for version, want := range map[uint16]error{4: snapfmt.ErrVersion, 5: snapfmt.ErrVersion, engineVersion: snapfmt.ErrCorrupt} {
		snap := replaceSection(t, buf.Bytes(), secMeta, gobMeta.Bytes())
		binary.LittleEndian.PutUint16(snap[snapfmt.MagicLen:], version)
		if _, err := LoadEngine(bytes.NewReader(snap)); !errors.Is(err, want) {
			t.Errorf("LoadEngine of a gob meta under a version-%d header = %v, want %v", version, err, want)
		}
	}
}

// replaceSection returns snap with the payload of its section kind
// replaced, checksummed afresh.
func replaceSection(t *testing.T, snap []byte, kind uint8, payload []byte) []byte {
	t.Helper()
	r := bytes.NewReader(snap)
	sections, err := snapfmt.ReadHeader(r, engineMagic, engineVersion)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := snapfmt.WriteHeader(&out, engineMagic, engineVersion, uint16(sections)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sections; i++ {
		k, p, err := snapfmt.ReadSection(r)
		if err != nil {
			t.Fatal(err)
		}
		if k == kind {
			p = payload
		}
		if err := snapfmt.WriteSection(&out, k, p); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}
