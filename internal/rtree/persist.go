package rtree

import (
	"fmt"
	"io"

	"vkgraph/internal/snapfmt"
)

// Persistence for a shaped index: the whole point of cracking is that the
// index's shape encodes the query workload, so being able to save a warmed
// index and reload it next to the (deterministically reprojected) point set
// preserves that investment across process restarts.
//
// The wire format stores structure only — node kinds, leaf ids, pending
// element id sets — and no geometry: not the point coordinates, which the
// PointSet rebuilds from the embedding + JL transform on load (both
// deterministic by seed), and not the boxes. The index is insert-only, so
// every box is the box of the points below it, and Load derives each one.
// The payload is wrapped in a snapfmt container (magic, version, CRC32)
// so a torn or bit-rotted file is rejected with a typed error before any
// byte reaches the decoder.
//
// The tree is flattened into packed preorder arrays (kinds, child/entry
// counts, concatenated id lists), mirroring the arena's index-addressed
// records, and written with snapfmt's fixed-width codec:
//
//	leafCap i64 | fanout i64 | splits i64 | queries i64 | initialN i64
//	node count u32 | kind u8 per node | count i32 per node
//	ids: count u32 | int32...
//
// Decoding reads the arrays in one pass, and nodes rebuild straight into
// arena slabs. This is format version 3, the only one read or written; any
// other version is rejected with ErrVersion.

const (
	treeMagic   = "VKGRTREE"
	treeVersion = 3
	secTreeFlat = 2 // flat preorder packed arrays
)

// wireFlat is the payload: the tree in preorder as packed
// parallel arrays. Kinds[i] is node i's state (0 internal, 1 leaf,
// 2 pending); Counts[i] its child count (internal) or entry count
// (leaf/pending); IDs the concatenated leaf/pending id lists in preorder.
type wireFlat struct {
	Opt      Options
	Splits   int
	Queries  int
	InitialN int
	Kinds    []uint8
	Counts   []int32
	IDs      []int32
}

// Encode writes the options: leafCap i64 | fanout i64.
func (o Options) Encode(w *snapfmt.Writer) {
	w.I64(int64(o.LeafCap))
	w.I64(int64(o.Fanout))
}

// DecodeOptions reads options written by Options.Encode.
func DecodeOptions(r *snapfmt.Reader) Options {
	return Options{LeafCap: int(r.I64()), Fanout: int(r.I64())}
}

func (wf *wireFlat) encode(w *snapfmt.Writer) {
	wf.Opt.Encode(w)
	w.I64(int64(wf.Splits))
	w.I64(int64(wf.Queries))
	w.I64(int64(wf.InitialN))
	w.Count(len(wf.Kinds))
	w.Grow(5*len(wf.Kinds) + 4*len(wf.IDs) + 4)
	for _, k := range wf.Kinds {
		w.U8(k)
	}
	for _, c := range wf.Counts {
		w.I32(c)
	}
	w.I32s(wf.IDs)
}

// decodeFlatPayload reads a payload written by wireFlat.encode.
func decodeFlatPayload(b []byte) (wireFlat, error) {
	r := snapfmt.NewReader(b)
	wf := wireFlat{Opt: DecodeOptions(r), Splits: int(r.I64()), Queries: int(r.I64()), InitialN: int(r.I64())}
	wf.Kinds = make([]uint8, r.Count(5))
	for i := range wf.Kinds {
		wf.Kinds[i] = r.U8()
	}
	wf.Counts = make([]int32, len(wf.Kinds))
	for i := range wf.Counts {
		wf.Counts[i] = r.I32()
	}
	wf.IDs = r.I32s()
	if err := r.Finish(); err != nil {
		return wireFlat{}, fmt.Errorf("rtree: decode tree: %w", err)
	}
	return wf, nil
}

// Save writes the tree structure: a snapfmt header followed by one
// checksummed section in the flat format.
func (t *Tree) Save(w io.Writer) error {
	t.ensureRoot()
	wf := wireFlat{
		Opt:      t.opt,
		Splits:   t.splits,
		Queries:  int(t.queries.Load()),
		InitialN: t.initialN,
	}
	var flatten func(nd *node)
	flatten = func(nd *node) {
		switch {
		case nd.isInternal():
			wf.Kinds = append(wf.Kinds, 0)
			wf.Counts = append(wf.Counts, int32(len(nd.children)))
			for _, c := range nd.children {
				flatten(c)
			}
		case nd.isLeaf():
			wf.Kinds = append(wf.Kinds, 1)
			wf.Counts = append(wf.Counts, int32(len(nd.leaf.IDs())))
			wf.IDs = append(wf.IDs, nd.leaf.IDs()...)
		default:
			ids := nd.part.ids()
			wf.Kinds = append(wf.Kinds, 2)
			wf.Counts = append(wf.Counts, int32(len(ids)))
			wf.IDs = append(wf.IDs, ids...)
		}
	}
	flatten(t.root)
	var payload snapfmt.Writer
	wf.encode(&payload)
	return snapfmt.WriteOne(w, treeMagic, treeVersion, secTreeFlat, payload.Bytes())
}

// Load reads a tree written by Save and attaches it to ps, which must hold
// the same points the tree was built over (same embedding, same transform,
// same seed). Pending elements rebuild their sort orders locally; this is
// proportional to the pending mass only, far cheaper than re-cracking.
// Every box is derived from the points.
//
// A stream with bad magic, a failed checksum, or a truncation returns an
// error satisfying errors.Is(err, snapfmt.ErrCorrupt), and so does a tree
// that does not hold every point of ps exactly once; any other format
// version returns one satisfying errors.Is(err, snapfmt.ErrVersion).
func Load(r io.Reader, ps *PointSet) (*Tree, error) {
	payload, err := snapfmt.ReadOne(r, treeMagic, treeVersion, secTreeFlat)
	if err != nil {
		return nil, fmt.Errorf("rtree: %w", err)
	}
	wf, err := decodeFlatPayload(payload)
	if err != nil {
		return nil, err
	}
	t := &Tree{ps: ps, arena: newNodeArena(ps.Dim), scratch: make([]bool, ps.N())}
	t.opt = wf.Opt.normalize()
	t.splits, t.initialN = wf.Splits, wf.InitialN
	t.queries.Store(int64(wf.Queries))
	cur := &flatCursor{wf: &wf}
	t.root, err = t.decodeFlat(cur)
	switch {
	case err != nil:
		return nil, err
	case cur.node != len(wf.Kinds) || cur.id != len(wf.IDs):
		return nil, fmt.Errorf("rtree: trailing tree data: %w", snapfmt.ErrCorrupt)
	case len(wf.IDs) != ps.N():
		// The ids are distinct and in range (claimIDs), so this is the
		// last way a point can be missing from the contour.
		return nil, fmt.Errorf("rtree: tree holds %d of %d points: %w", len(wf.IDs), ps.N(), snapfmt.ErrCorrupt)
	}
	clear(t.scratch) // partition.split relies on it being all false
	return t, nil
}

// flatCursor tracks the decode position in each wireFlat array.
type flatCursor struct {
	wf   *wireFlat
	node int // index into Kinds/Counts
	id   int // consumed prefix of IDs
}

// decodeFlat rebuilds the subtree whose preorder starts at c, deriving
// each node's box and pending count bottom-up: a leaf's box is its points',
// a pending element's is newPartition's, an internal node's the union of
// its children's. A pending element that fits in a leaf, which Save
// never writes, is made one.
func (t *Tree) decodeFlat(c *flatCursor) (*node, error) {
	wf := c.wf
	if c.node >= len(wf.Kinds) || c.node >= len(wf.Counts) {
		return nil, fmt.Errorf("rtree: truncated node array: %w", snapfmt.ErrCorrupt)
	}
	kind, cnt := wf.Kinds[c.node], int(wf.Counts[c.node])
	c.node++
	if cnt < 0 {
		return nil, fmt.Errorf("rtree: malformed node record: %w", snapfmt.ErrCorrupt)
	}
	nd := t.arena.alloc()
	switch kind {
	case 0:
		// Each child takes a record of its own, so a count past the records
		// left is refused before it sizes the child list.
		if cnt == 0 || cnt > t.opt.Fanout || cnt > len(wf.Kinds)-c.node {
			return nil, fmt.Errorf("rtree: internal node with %d children: %w", cnt, snapfmt.ErrCorrupt)
		}
		nd.children = make([]*node, 0, cnt)
		for i := 0; i < cnt; i++ {
			child, err := t.decodeFlat(c)
			if err != nil {
				return nil, err
			}
			nd.children = append(nd.children, child)
			nd.mbr.ExpandRect(child.mbr)
			nd.pending += child.pending
		}
	case 1, 2:
		if c.id+cnt > len(wf.IDs) {
			return nil, fmt.Errorf("rtree: truncated id array: %w", snapfmt.ErrCorrupt)
		}
		ids := wf.IDs[c.id : c.id+cnt]
		c.id += cnt
		if err := t.claimIDs(ids); err != nil {
			return nil, err
		}
		switch {
		case kind == 2 && cnt == 0:
			return nil, fmt.Errorf("rtree: empty pending element: %w", snapfmt.ErrCorrupt)
		case cnt <= t.opt.LeafCap:
			nd.setMBR(mbrOf(t.ps, ids))
			t.arena.setLeaf(nd, t.ps, append([]int32{}, ids...))
		case kind == 1:
			return nil, fmt.Errorf("rtree: leaf with %d entries: %w", cnt, snapfmt.ErrCorrupt)
		default:
			nd.part = newPartition(t.ps, ids)
			nd.setMBR(nd.part.mbr)
			nd.pending = 1
		}
	default:
		return nil, fmt.Errorf("rtree: unknown node kind %d: %w", kind, snapfmt.ErrCorrupt)
	}
	return nd, nil
}

// claimIDs checks that ids lie in the point set and that none was claimed
// before, marking each in t.scratch; Load clears the flags again.
func (t *Tree) claimIDs(ids []int32) error {
	for _, id := range ids {
		if id < 0 || int(id) >= t.ps.N() {
			return fmt.Errorf("rtree: point id %d outside point set of %d: %w",
				id, t.ps.N(), snapfmt.ErrCorrupt)
		}
		if t.scratch[id] {
			return fmt.Errorf("rtree: point id %d appears twice: %w", id, snapfmt.ErrCorrupt)
		}
		t.scratch[id] = true
	}
	return nil
}
