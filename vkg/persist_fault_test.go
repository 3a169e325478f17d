package vkg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vkgraph/internal/atomicfile"
	"vkgraph/internal/faultio"
)

func builtVKG(t *testing.T, extra ...Option) (*VKG, RelationID) {
	t.Helper()
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts(extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	amy, _ := g.EntityByName("user0")
	for i := 0; i < 4; i++ {
		if _, err := v.TopKTails(amy, ratesHigh, 5); err != nil {
			t.Fatal(err)
		}
	}
	return v, ratesHigh
}

func TestLoadTypedErrors(t *testing.T) {
	v, _ := builtVKG(t)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	if _, err := Load(bytes.NewReader([]byte("not a snapshot at all"))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("garbage: got %v, want errors.Is ErrCorruptSnapshot", err)
	}
	if _, err := Load(bytes.NewReader(snap[:40])); !errors.Is(err, ErrCorruptSnapshot) {
		t.Errorf("truncated: got %v, want errors.Is ErrCorruptSnapshot", err)
	}
	future := append([]byte(nil), snap...)
	binary.LittleEndian.PutUint16(future[8:], 0x7FFF) // bump the format version
	if _, err := Load(bytes.NewReader(future)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: got %v, want errors.Is ErrVersion", err)
	}
}

// A save that dies mid-write — torn write, full disk, failed sync or rename —
// must leave the previous on-disk snapshot untouched and loadable.
func TestTornSaveKeepsPreviousSnapshot(t *testing.T) {
	v, ratesHigh := builtVKG(t)
	path := filepath.Join(t.TempDir(), "v.vkg")
	if err := v.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	entitiesBefore := v.Graph().NumEntities()
	amy, _ := v.Graph().EntityByName("user0")

	// Change the VKG so a successful re-save would write different bytes.
	if _, err := v.InsertEntity("brand-new", "restaurant",
		[]Fact{{Rel: ratesHigh, Other: amy}}, nil); err != nil {
		t.Fatal(err)
	}

	faults := []*faultio.FS{
		{WriteN: 64, WriteErr: faultio.ErrInjected}, // torn write
		{SyncErr: faultio.ErrInjected},              // fsync failure
		{RenameErr: faultio.ErrInjected},            // rename failure
		{CloseErr: faultio.ErrInjected},             // close failure
	}
	for i, fs := range faults {
		if err := atomicfile.Write(fs, path, v.Save); err == nil {
			t.Fatalf("fault %d: save succeeded despite the injected failure", i)
		}
		if n := len(fs.Renamed()); n != 0 {
			t.Fatalf("fault %d: %d renames reached the destination", i, n)
		}
		for _, tmp := range fs.Created() {
			if _, err := os.Stat(tmp); !os.IsNotExist(err) {
				t.Fatalf("fault %d: temp file %s left behind", i, tmp)
			}
		}
		loaded, err := LoadFile(path)
		if err != nil {
			t.Fatalf("fault %d: previous snapshot no longer loads: %v", i, err)
		}
		if loaded.Graph().NumEntities() != entitiesBefore {
			t.Fatalf("fault %d: previous snapshot changed: %d entities, want %d",
				i, loaded.Graph().NumEntities(), entitiesBefore)
		}
	}

	// And with no fault armed the same path replaces the snapshot.
	if err := atomicfile.Write(&faultio.FS{}, path, v.Save); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Graph().NumEntities() != entitiesBefore+1 {
		t.Fatalf("clean re-save not visible: %d entities, want %d",
			loaded.Graph().NumEntities(), entitiesBefore+1)
	}
}

// Load must hand back the index mode the snapshot was built with — a loaded
// VKG that silently reverts to the default mode drops the bulk configuration
// the user chose.
func TestLoadRestoresIndexMode(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want IndexMode
	}{
		{"crack", nil, ModeCrack},
		{"bulk", []Option{WithIndexMode(ModeBulk)}, ModeBulk},
	}
	for _, c := range cases {
		v, _ := builtVKG(t, c.opts...)
		if v.Mode() != c.want {
			t.Fatalf("%s: built VKG has mode %v, want %v", c.name, v.Mode(), c.want)
		}
		var buf bytes.Buffer
		if err := v.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Mode() != c.want {
			t.Errorf("%s: loaded VKG has mode %v, want %v", c.name, loaded.Mode(), c.want)
		}
		if loaded.IndexRebuilt() {
			t.Errorf("%s: clean load reported a rebuilt index", c.name)
		}
	}
}

// Damage confined to the index section degrades gracefully at the public
// API too: Load succeeds, IndexRebuilt reports it, queries still answer.
func TestLoadDegradedIndexSection(t *testing.T) {
	v, ratesHigh := builtVKG(t)
	var buf bytes.Buffer
	if err := v.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	snap[len(snap)-1] ^= 0x01 // the index section is written last

	loaded, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("Load failed instead of degrading: %v", err)
	}
	if !loaded.IndexRebuilt() {
		t.Fatal("degraded load not reported by IndexRebuilt")
	}
	amy, _ := loaded.Graph().EntityByName("user0")
	res, err := loaded.TopKTails(amy, ratesHigh, 5)
	if err != nil {
		t.Fatalf("query on degraded VKG: %v", err)
	}
	if len(res.Predictions) != 5 {
		t.Fatalf("degraded VKG returned %d predictions, want 5", len(res.Predictions))
	}
}
