package vkg

import (
	"fmt"
	"io"
	"os"

	"vkgraph/internal/core"
	"vkgraph/internal/snapfmt"
)

// Typed snapshot errors. Load and LoadFile never panic on damaged input:
// every torn write, bit flip, truncation, or wrong-format file maps to one
// of these (test with errors.Is).
var (
	// ErrCorruptSnapshot reports a snapshot that is not loadable: bad
	// magic, a failed section checksum, or a truncation in the graph,
	// model, or parameter sections. (Damage confined to the index section
	// does NOT return this error — see Load.)
	ErrCorruptSnapshot = snapfmt.ErrCorrupt
	// ErrVersion reports a structurally valid snapshot written by an
	// incompatible format version.
	ErrVersion = snapfmt.ErrVersion
)

// Save writes the whole virtual knowledge graph — graph, trained embedding,
// parameters, and the shape of the cracked index — to w. The index shape is
// the part the query workload paid for: loading it back preserves the warm,
// workload-fitted structure across restarts.
//
// Save takes the engine read lock, so it is safe to snapshot a VKG that is
// concurrently serving queries.
func (v *VKG) Save(w io.Writer) error {
	if v.noIdx {
		return fmt.Errorf("vkg: ModeNoIndex has no index to save")
	}
	return v.eng.Save(w)
}

// SaveFile writes the virtual knowledge graph to path atomically: the
// snapshot is written to a temporary file in the same directory, synced,
// and renamed over path. A crash or error mid-save leaves any previous
// snapshot at path untouched. When a WAL is armed (EnableWAL/LoadFileWAL)
// and path is its snapshot path, the save also rotates the log atomically
// with the snapshot, so the pair is always mutually consistent.
func (v *VKG) SaveFile(path string) error {
	if v.noIdx {
		return fmt.Errorf("vkg: ModeNoIndex has no index to save")
	}
	return v.eng.SaveFile(path)
}

// Load reads a virtual knowledge graph written by Save, restoring the index
// mode it was built with.
//
// Damaged input returns an error satisfying errors.Is(err,
// ErrCorruptSnapshot) (or ErrVersion for an incompatible format version) —
// with one deliberate exception: if the damage is confined to the index
// section, the graph and model are intact and Load succeeds with a cold,
// freshly rebuilt index. Only the workload-fitted index shape is lost;
// IndexRebuilt reports when this happened.
func Load(r io.Reader) (*VKG, error) {
	eng, err := core.LoadEngine(r)
	if err != nil {
		return nil, err
	}
	return wrapLoadedEngine(eng), nil
}

// wrapLoadedEngine wraps a loaded core engine as a VKG, restoring the
// public index mode from the engine's persisted parameters (shared by Load
// and LoadFileWAL).
func wrapLoadedEngine(eng *core.Engine) *VKG {
	mode := ModeCrack
	if eng.Mode() == core.Bulk {
		mode = ModeBulk
	}
	return &VKG{
		graph: WrapGraph(eng.Graph()),
		eng:   eng,
		mode:  mode,
	}
}

// LoadFile reads a virtual knowledge graph from path. See Load for the
// error contract.
func LoadFile(path string) (*VKG, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// Mode returns the index mode this VKG was built or loaded with.
func (v *VKG) Mode() IndexMode { return v.mode }

// IndexRebuilt reports whether this VKG came from a snapshot whose index
// section was damaged: the graph and model loaded intact, but the cracked
// index shape was lost and a cold index was rebuilt in its place. Queries
// are still correct; the index re-warms with the workload.
func (v *VKG) IndexRebuilt() bool { return v.eng.IndexRebuilt() }
