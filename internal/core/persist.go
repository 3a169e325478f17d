package core

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"vkgraph/internal/atomicfile"
	"vkgraph/internal/embedding"
	"vkgraph/internal/jl"
	"vkgraph/internal/kg"
	"vkgraph/internal/rtree"
	"vkgraph/internal/snapfmt"
)

// Engine persistence: one file holds the graph, the trained embedding, the
// engine parameters, and the *shape* of the cracked index — the part whose
// value the query workload paid for. On load, the S2 points and the JL
// transform are rebuilt deterministically from the model and the saved seed.
//
// The snapshot is a snapfmt container (magic, version, per-section CRC32):
// meta, graph, and model sections first, the index section last. Damage to
// any of the first three is unrecoverable and reported as a typed error;
// damage confined to the index section degrades gracefully — the graph and
// model are intact, so a cold cracking index is rebuilt and only the
// workload-paid-for shape is lost (Engine.IndexRebuilt reports this).
//
// The index section is the tree as rtree.Save writes it, its query counter
// included; leaf pages are derived data, rebuilt from the points as the tree
// loads. Every section is written with snapfmt's fixed-width codec: the
// meta layout is below, the graph's is kg.Graph.Encode's and the model's
// embedding.Model.Encode's. This is format version 6, the only one read or
// written; any other version fails the load with snapfmt.ErrVersion.

const (
	engineMagic   = "VKGSNAP\x00"
	engineVersion = 6

	secMeta  = 1
	secGraph = 2
	secModel = 3
	secTree  = 4

	engineSections = 4
)

// wireMeta is the meta section: the engine parameters and index mode, plus
//
//   - WalGen, which keys the snapshot to its sidecar write-ahead log. It is
//     nonzero only in snapshots written by the WAL rotation path; a plain
//     Save always writes 0, so a log can never be replayed onto a snapshot
//     it does not extend.
//   - EffAttrs, the effective attribute list — the point set's registered
//     columns at save time, which may exceed Params.Attrs once attributes
//     were added dynamically. Params.Attrs stays the build-time set; load
//     registers EffAttrs, so dynamically added columns survive the
//     round-trip.
//
// Its layout:
//
//	alpha i64 | eps f64 | pTau f64 | seed i64 | leafCap i64 | fanout i64 |
//	attrs strings | mode u8 | walGen u64 | effAttrs strings
type wireMeta struct {
	Params   Params
	Mode     IndexMode
	WalGen   uint64
	EffAttrs []string
}

func (m *wireMeta) encode(w *snapfmt.Writer) {
	p := &m.Params
	w.I64(int64(p.Alpha))
	w.F64(p.Eps)
	w.F64(p.PTau)
	w.I64(p.Seed)
	p.Index.Encode(w)
	w.Strings(p.Attrs)
	w.U8(uint8(m.Mode))
	w.U64(m.WalGen)
	w.Strings(m.EffAttrs)
}

// decodeMeta reads a meta section written by wireMeta.encode. Any failure
// wraps snapfmt.ErrCorrupt.
func decodeMeta(b []byte) (wireMeta, error) {
	r := snapfmt.NewReader(b)
	var m wireMeta
	p := &m.Params
	p.Alpha = int(r.I64())
	p.Eps = r.F64()
	p.PTau = r.F64()
	p.Seed = r.I64()
	p.Index = rtree.DecodeOptions(r)
	p.Attrs = r.Strings()
	m.Mode = IndexMode(r.U8())
	m.WalGen = r.U64()
	m.EffAttrs = r.Strings()
	if p.Alpha <= 0 || (m.Mode != Crack && m.Mode != Bulk) {
		r.Fail("alpha %d, index mode %d", p.Alpha, m.Mode)
	}
	if err := r.Finish(); err != nil {
		return wireMeta{}, fmt.Errorf("core: decode params: %w", err)
	}
	return m, nil
}

// Save writes the engine (graph, model, parameters, index shape) to w. It
// runs under the engine read lock plus the index read lock, so snapshots
// are consistent and may run concurrently with queries; updates and cracks
// wait until the snapshot is encoded.
func (e *Engine) Save(w io.Writer) error {
	e.prepareIndex() // materialize the lazy root before going read-only
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.mu.RLock()
	defer e.idx.mu.RUnlock()
	// Standalone saves carry WalGen 0: no log is ever keyed to them, so a
	// stray .wal file beside a copied snapshot can never be replayed onto
	// it. Only SaveFile's rotation path writes a nonzero generation.
	return e.saveLocked(w, 0)
}

// saveLocked encodes the snapshot; the caller holds the engine read lock
// and the index read lock (so no mutation or crack can interleave), and
// passes the WAL generation to stamp into the meta section.
func (e *Engine) saveLocked(w io.Writer, walGen uint64) error {
	var metaBuf, graphBuf, modelBuf snapfmt.Writer
	var treeBuf bytes.Buffer
	meta := wireMeta{Params: e.params, Mode: e.mode, WalGen: walGen, EffAttrs: e.ps.AttrNames()}
	meta.encode(&metaBuf)
	e.g.Encode(&graphBuf)
	e.m.Encode(&modelBuf)
	if err := e.idx.tree.Save(&treeBuf); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	if err := snapfmt.WriteHeader(w, engineMagic, engineVersion, engineSections); err != nil {
		return err
	}
	for _, sec := range []struct {
		kind    uint8
		payload []byte
	}{
		{secMeta, metaBuf.Bytes()},
		{secGraph, graphBuf.Bytes()},
		{secModel, modelBuf.Bytes()},
		{secTree, treeBuf.Bytes()},
	} {
		if err := snapfmt.WriteSection(w, sec.kind, sec.payload); err != nil {
			return err
		}
	}
	return nil
}

// LoadEngine reads an engine written by Save.
//
// Error contract: a stream that is not a snapshot, fails a checksum in the
// meta/graph/model sections, or is truncated before the index section
// returns an error satisfying errors.Is(err, snapfmt.ErrCorrupt); a
// snapshot from an incompatible format version returns snapfmt.ErrVersion.
// Damage confined to the index section does NOT fail the load: the graph
// and model are intact, so the engine comes up with a freshly built cold
// index and IndexRebuilt() reporting true.
//
// Loading logs nothing: it reconstructs state the snapshot already made
// durable, and the WAL arms only after the load (and replay) completes.
func LoadEngine(r io.Reader) (*Engine, error) {
	if _, err := snapfmt.ReadHeader(r, engineMagic, engineVersion); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sections := make(map[uint8][]byte, engineSections)
	var treeErr error
	for i := 0; i < engineSections; i++ {
		kind, payload, err := snapfmt.ReadSection(r)
		if err != nil {
			// The index section is the last one and the only rebuildable
			// one; any damage at or after its frame degrades instead of
			// failing, provided the unrecoverable sections all arrived.
			if haveCoreSections(sections) {
				treeErr = err
				break
			}
			return nil, fmt.Errorf("core: %w", err)
		}
		sections[kind] = payload
	}
	if !haveCoreSections(sections) {
		return nil, fmt.Errorf("core: snapshot missing sections: %w", snapfmt.ErrCorrupt)
	}

	meta, err := decodeMeta(sections[secMeta])
	if err != nil {
		return nil, err
	}
	g, err := kg.Decode(sections[secGraph])
	if err != nil {
		return nil, fmt.Errorf("core: loading graph: %w", err)
	}
	m, err := embedding.Decode(sections[secModel])
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	p := meta.Params

	tf := jl.New(m.Dim, p.Alpha, p.Seed)
	ps := rtree.NewPointSet(p.Alpha, tf.ApplyAll(m.Entities))
	// Register the effective attribute list — the columns the point set had
	// at save time, a superset of the build-time Params.Attrs once
	// attributes were added dynamically. A name the loaded graph does not
	// carry is dropped with the load degraded (visible via DroppedAttrs and
	// the vkg_load_dropped_attrs gauge) rather than failing a snapshot whose
	// graph and model are intact — the same spirit as the index-section
	// degrade contract.
	var droppedAttrs []string
	for _, name := range meta.EffAttrs {
		col, ok := g.AttrColumn(name)
		if !ok {
			droppedAttrs = append(droppedAttrs, name)
			continue
		}
		ps.BindAttr(name, col)
	}

	var tree *rtree.Tree
	if treeErr == nil {
		tree, treeErr = rtree.Load(bytes.NewReader(sections[secTree]), ps)
	}

	e := &Engine{
		g:            g,
		m:            m,
		tf:           tf,
		ps:           ps,
		params:       p,
		mode:         meta.Mode,
		droppedAttrs: droppedAttrs,
		snapGen:      meta.WalGen,
	}
	if treeErr != nil {
		// Graph and model survived; rebuild a cold index rather than fail.
		e.degraded = true
		e.buildIndex()
	} else {
		e.idx.tree = tree
	}
	e.initExec()
	return e, nil
}

func haveCoreSections(sections map[uint8][]byte) bool {
	for _, kind := range []uint8{secMeta, secGraph, secModel} {
		if _, ok := sections[kind]; !ok {
			return false
		}
	}
	return true
}

// SaveFile writes the engine to path atomically: the bytes land in a temp
// file that is synced and renamed over path, so a crash mid-save leaves any
// previous snapshot untouched.
//
// When a WAL is configured and path is its snapshot path, the save also
// rotates the log: the snapshot is stamped with the next generation,
// renamed into place, and the log is atomically replaced with an empty one
// keyed to that generation — all inside one critical section (engine read
// lock + index read lock + WAL mutex) so no append can land in the old
// log after the snapshot that supersedes it, and no mutation can fall in
// the gap between snapshot and rotation. A crash between the two renames
// leaves the new snapshot with the old generation's log beside it; the
// generation mismatch makes load discard that log whole (ReplayStale)
// instead of replaying records the snapshot already contains.
func (e *Engine) SaveFile(path string) error {
	e.prepareIndex()
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.idx.mu.RLock()
	defer e.idx.mu.RUnlock()
	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	if e.wal.configured && path == e.wal.snapPath {
		gen := e.wal.gen + 1
		if err := atomicfile.WriteFile(path, func(w io.Writer) error {
			return e.saveLocked(w, gen)
		}); err != nil {
			return err
		}
		return e.rotateWALLocked(gen)
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return e.saveLocked(w, 0)
	})
}

// LoadEngineFile reads an engine from path.
func LoadEngineFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadEngine(f)
}
