package rtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"vkgraph/internal/snapfmt"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	ps := clusteredPointSet(2500, 3, 5, 61)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(62))
	queries := make([]Rect, 24)
	for i := range queries {
		queries[i] = randomQuery(rng, 3, 0, 10)
		tr.Crack(queries[i])
	}
	before := tr.Stats()

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf, ps)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	after := got.Stats()
	if after.TotalNodes != before.TotalNodes || after.BinarySplits != before.BinarySplits ||
		after.Queries != before.Queries {
		t.Fatalf("stats changed in round trip: %+v vs %+v", after, before)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants after load: %v", err)
	}
	// Loaded tree answers identically.
	for _, q := range queries {
		a := sortIDs(tr.Search(q))
		b := sortIDs(got.Search(q))
		if !equalIDs(a, b) {
			t.Fatalf("loaded tree answers differently: %d vs %d ids", len(b), len(a))
		}
	}
	// And keeps cracking correctly.
	q := randomQuery(rng, 3, 0, 10)
	got.Crack(q)
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants after post-load crack: %v", err)
	}
	if !equalIDs(sortIDs(got.Search(q)), sortIDs(bruteSearch(ps, q))) {
		t.Fatal("post-load crack broke search")
	}
}

// TestLoadRetiredOptions: a tree saved by the release that still had
// Algorithm 2 carries SplitChoices, MaxCandidatePops, an Explored count, a
// Deleted list (always empty, so gob writes none of it) and every node's
// box. It loads to the same shape and cracks on greedily, like the tree it
// was saved from.
func TestLoadRetiredOptions(t *testing.T) {
	ps := clusteredPointSet(2500, 3, 5, 64)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(65))
	for i := 0; i < 12; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	wf := decodeTree(t, tr)
	type retiredOptions struct {
		LeafCap, Fanout, SplitChoices, MaxCandidatePops int
	}
	type retiredWire struct {
		Opt                                 retiredOptions
		Splits, Explored, Queries, InitialN int
		Deleted                             []int32
		Kinds                               []uint8
		Counts                              []int32
		Mbrs                                []float64
		IDs                                 []int32
	}
	got, err := Load(encodeTree(t, retiredWire{
		Opt:    retiredOptions{LeafCap: wf.Opt.LeafCap, Fanout: wf.Opt.Fanout, SplitChoices: 2, MaxCandidatePops: 512},
		Splits: wf.Splits, Explored: 3 * wf.Splits, Queries: wf.Queries, InitialN: wf.InitialN,
		Kinds: wf.Kinds, Counts: wf.Counts, Mbrs: storedBoxes(tr), IDs: wf.IDs,
	}), ps)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Opt() != tr.Opt() || got.StructureHash() != tr.StructureHash() {
		t.Fatal("a tree with retired options loaded to a different tree")
	}
	splits := got.Splits()
	for i := 0; i < 12; i++ {
		q := BallRect(ps.At(int32(rng.Intn(ps.N()))), 0.3)
		tr.Crack(q)
		got.Crack(q)
	}
	if got.Splits() == splits || got.StructureHash() != tr.StructureHash() {
		t.Fatal("a tree with retired options did not crack greedily")
	}
}

func TestLoadValidation(t *testing.T) {
	ps := randomPointSet(100, 2, 64)
	var bad bytes.Buffer
	bad.WriteString("not a gob tree")
	if _, err := Load(&bad, ps); err == nil {
		t.Fatal("Load accepted garbage")
	}
	// A tree saved over a bigger point set must be rejected when loaded
	// against a smaller one.
	big := randomPointSet(200, 2, 65)
	tr := NewCracking(big, DefaultOptions())
	tr.Crack(BallRect([]float64{0.5, 0.5}, 0.2))
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, ps); err == nil {
		t.Fatal("Load accepted a tree referencing out-of-range points")
	}
	// Dimension mismatch rejected.
	tr3 := NewCracking(randomPointSet(50, 3, 66), DefaultOptions())
	tr3.Crack(BallRect([]float64{0.5, 0.5, 0.5}, 0.2))
	buf.Reset()
	if err := tr3.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, ps); err == nil {
		t.Fatal("Load accepted a tree of different dimensionality")
	}
}

func TestSaveFreshTree(t *testing.T) {
	ps := randomPointSet(300, 3, 67)
	tr := NewCracking(ps, DefaultOptions())
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatalf("Save fresh: %v", err)
	}
	got, err := Load(&buf, ps)
	if err != nil {
		t.Fatalf("Load fresh: %v", err)
	}
	if got.Stats().TotalNodes != 1 {
		t.Fatalf("fresh tree has %d nodes after round trip", got.Stats().TotalNodes)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestLoadRejectsOldVersion: a version-1 blob (the retired recursive format)
// is refused with the typed version error, not misread as the flat format.
func TestLoadRejectsOldVersion(t *testing.T) {
	ps := clusteredPointSet(300, 2, 3, 68)
	var buf bytes.Buffer
	if err := NewCracking(ps, DefaultOptions()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	binary.LittleEndian.PutUint16(blob[snapfmt.MagicLen:], 1)
	if _, err := Load(bytes.NewReader(blob), ps); !errors.Is(err, snapfmt.ErrVersion) {
		t.Fatalf("Load of a version-1 header = %v, want ErrVersion", err)
	}
}

// FuzzTreeLoad drives Load over arbitrary bytes, seeded with a real blob and
// damaged copies of it. The contract: never panic, either return a usable tree that
// passes CheckInvariants or an error — nothing in between.
func FuzzTreeLoad(f *testing.F) {
	ps := clusteredPointSet(300, 2, 3, 70)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 6; i++ {
		tr.Crack(randomQuery(rng, 2, 0, 10))
	}
	var v2 bytes.Buffer
	if err := tr.Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	// Truncations and single-byte corruptions of the flat format.
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	mut := append([]byte(nil), v2.Bytes()...)
	mut[len(mut)/2] ^= 0x40
	f.Add(mut)
	f.Add([]byte("not a snapshot"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data), ps)
		if err != nil {
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted bytes yielding a broken tree: %v", err)
		}
		// A loaded tree must be traversable without panicking.
		got.Search(BallRect([]float64{5, 5}, 1))
	})
}

// FuzzTreeDecode drives Load over arbitrary tree payloads, each wrapped in
// a valid header and section so that a mutation reaches decodeFlat instead
// of failing the checksum, and loaded against one of a few point sets. It
// is seeded with a real payload, its truncations and the hand-built trees
// of the Load tests. The contract: Load returns an error wrapping
// ErrCorrupt, or a tree that passes CheckInvariants and whose Search of a
// ball around each of a few points equals a scan.
func FuzzTreeDecode(f *testing.F) {
	sets := []*PointSet{
		clusteredPointSet(300, 2, 3, 70),
		NewPointSet(2, []float64{0, 0, 1, 1, 1, 1}),
		NewPointSet(1, []float64{0, 1, 2}),
		NewPointSet(1, []float64{0, 1, 2, 3}),
	}
	tr := NewCracking(sets[0], DefaultOptions())
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 6; i++ {
		tr.Crack(randomQuery(rng, 2, 0, 10))
	}
	saved := savedPayload(f, tr)
	for _, n := range []int{len(saved), len(saved) - 1, len(saved) * 3 / 4, len(saved) / 2, 40, 0} {
		f.Add(saved[:n], uint8(0))
	}
	for _, wf := range []wireFlat{
		{Opt: DefaultOptions(), InitialN: 3, Kinds: []uint8{1}, Counts: []int32{3}, IDs: []int32{0, 1, 2}},
		{Opt: DefaultOptions(), InitialN: 3, Kinds: []uint8{1}, Counts: []int32{3}, IDs: []int32{0, 1, 1}},
	} {
		f.Add(gobPayload(f, wf), uint8(1))
	}
	for _, wf := range []wireFlat{
		{Opt: Options{LeafCap: 2, Fanout: 2}, InitialN: 3, Kinds: []uint8{0, 1, 1}, Counts: []int32{2, 2, 1}, IDs: []int32{0, 1, 2}},
		{Opt: Options{LeafCap: 2, Fanout: 2}, InitialN: 3, Kinds: []uint8{0, 1, 1, 1}, Counts: []int32{3, 1, 1, 1}, IDs: []int32{0, 1, 2}},
	} {
		f.Add(gobPayload(f, wf), uint8(2))
	}
	f.Add(gobPayload(f, smallPendingTree), uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, set uint8) {
		ps := sets[int(set)%len(sets)]
		got, err := Load(wrapTree(t, payload), ps)
		if err != nil {
			if !errors.Is(err, snapfmt.ErrCorrupt) {
				t.Fatalf("Load = %v, want an error wrapping ErrCorrupt", err)
			}
			return
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("Load accepted a payload yielding a broken tree: %v", err)
		}
		for i := int32(0); i < 4 && int(i) < ps.N(); i++ {
			q := BallRect(ps.At(i*7%int32(ps.N())), 0.5+float64(i))
			if !equalIDs(sortIDs(got.Search(q)), bruteSearch(ps, q)) {
				t.Fatalf("Search(%v) of the loaded tree differs from a scan", q)
			}
		}
	})
}

// gobPayload is the gob encoding of a tree payload (a wireFlat, or a struct
// gob matches to one).
func gobPayload(tb testing.TB, wf any) []byte {
	tb.Helper()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wf); err != nil {
		tb.Fatal(err)
	}
	return payload.Bytes()
}

// wrapTree wraps a tree payload in a fresh header and section, as Save
// does, so that a test can load an edited blob whose checksum is valid.
func wrapTree(tb testing.TB, payload []byte) *bytes.Buffer {
	tb.Helper()
	var blob bytes.Buffer
	if err := snapfmt.WriteHeader(&blob, treeMagic, treeVersion, 1); err != nil {
		tb.Fatal(err)
	}
	if err := snapfmt.WriteSection(&blob, secTreeFlat, payload); err != nil {
		tb.Fatal(err)
	}
	return &blob
}

// encodeTree is wrapTree of wf's gob encoding.
func encodeTree(tb testing.TB, wf any) *bytes.Buffer {
	tb.Helper()
	return wrapTree(tb, gobPayload(tb, wf))
}

// savedPayload returns the gob payload Save writes for tr.
func savedPayload(tb testing.TB, tr *Tree) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	if _, err := snapfmt.ReadHeader(&buf, treeMagic, treeVersion); err != nil {
		tb.Fatal(err)
	}
	_, payload, err := snapfmt.ReadSection(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return payload
}

// decodeTree returns the payload Save writes for tr, decoded.
func decodeTree(tb testing.TB, tr *Tree) wireFlat {
	tb.Helper()
	var wf wireFlat
	if err := gob.NewDecoder(bytes.NewReader(savedPayload(tb, tr))).Decode(&wf); err != nil {
		tb.Fatal(err)
	}
	return wf
}

// TestLoadSizesNoListPastTheRecords: an internal node's child count and
// the Fanout that bounds it both come from the blob, so only the records
// left bound the count. One past them is refused before a child list of
// that size is made.
func TestLoadSizesNoListPastTheRecords(t *testing.T) {
	ps := NewPointSet(1, []float64{0, 1, 2})
	blob := encodeTree(t, wireFlat{Opt: Options{LeafCap: 2, Fanout: 1 << 30}, InitialN: ps.N(),
		Kinds: []uint8{0, 1, 1}, Counts: []int32{1 << 22, 2, 1}, IDs: []int32{0, 1, 2}}).Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(bytes.NewReader(blob), ps)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("Load of a %d-byte blob allocated %d bytes", len(blob), got)
	}
}

// previousWire is the tree payload in the layout of the releases that
// stored each node's box: wireFlat with Mbrs, 2*dim coordinates per node in
// preorder (lo then hi).
type previousWire struct {
	Opt      Options
	Splits   int
	Queries  int
	InitialN int
	Kinds    []uint8
	Counts   []int32
	Mbrs     []float64
	IDs      []int32
}

// storedBoxes returns tr's boxes as previousWire stores them.
func storedBoxes(tr *Tree) []float64 {
	var mbrs []float64
	var walk func(nd *node)
	walk = func(nd *node) {
		mbrs = append(append(mbrs, nd.mbr.Lo...), nd.mbr.Hi...)
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(tr.root)
	return mbrs
}

// TestLoadIgnoresStoredBoxes: the walks and Search prune by the boxes, so a
// blob in the previous layout whose stored box is not the box of the points
// below it must not hide those points. The blobs are a saved 2,500-point
// cracked tree with the last node's box moved to the point 1e6, and with
// the root's box widened; each loads to the tree it was saved from, whose
// Search of a ball over the last node equals a scan.
func TestLoadIgnoresStoredBoxes(t *testing.T) {
	ps := clusteredPointSet(2500, 3, 5, 61)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 24; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	wf := decodeTree(t, tr)
	last := tr.root
	for last.isInternal() {
		last = last.children[len(last.children)-1]
	}
	q := BallRect(ps.At(last.ids()[0]), 0.5)
	for name, edit := range map[string]func(mbrs []float64){
		"last node moved": func(mbrs []float64) {
			for i := len(mbrs) - 2*ps.Dim; i < len(mbrs); i++ {
				mbrs[i] = 1e6
			}
		},
		"root widened": func(mbrs []float64) { mbrs[0] -= 1 },
	} {
		mbrs := storedBoxes(tr)
		edit(mbrs)
		got, err := Load(encodeTree(t, previousWire{Opt: wf.Opt, Splits: wf.Splits, Queries: wf.Queries,
			InitialN: wf.InitialN, Kinds: wf.Kinds, Counts: wf.Counts, Mbrs: mbrs, IDs: wf.IDs}), ps)
		if err != nil {
			t.Fatalf("%s: Load: %v", name, err)
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.StructureHash() != tr.StructureHash() {
			t.Errorf("%s: the loaded tree is not the tree saved", name)
		}
		if want := bruteSearch(ps, q); len(want) == 0 || !equalIDs(sortIDs(got.Search(q)), want) {
			t.Errorf("%s: Search over the last node differs from a scan of %d points", name, len(want))
		}
	}
}

// TestNewBlobInPreviousLayout: a release that stored boxes decodes a blob
// without them to the same arrays and no boxes at all, which its Load
// refused as ErrCorrupt (a node record short of 2*dim coordinates), so its
// degraded load rebuilt a cold index.
func TestNewBlobInPreviousLayout(t *testing.T) {
	ps := clusteredPointSet(2500, 3, 5, 63)
	tr := NewCracking(ps, DefaultOptions())
	tr.Crack(BallRect(ps.At(0), 1))
	var old previousWire
	if err := gob.NewDecoder(bytes.NewReader(savedPayload(t, tr))).Decode(&old); err != nil {
		t.Fatal(err)
	}
	wf := decodeTree(t, tr)
	if len(old.Mbrs) != 0 || len(old.Kinds) < 2 || !slices.Equal(old.Kinds, wf.Kinds) ||
		!slices.Equal(old.Counts, wf.Counts) || !slices.Equal(old.IDs, wf.IDs) {
		t.Fatalf("the previous layout decodes %d kinds and %d box coordinates, want %d and none",
			len(old.Kinds), len(old.Mbrs), len(wf.Kinds))
	}
}

// TestLoadRejectsRepeatedIDs: every point is in the contour exactly once.
// The blobs are one leaf over three points, the third a copy of the
// second: the leaf lists the second point twice and the third not at all,
// or leaves the third out.
func TestLoadRejectsRepeatedIDs(t *testing.T) {
	ps := NewPointSet(2, []float64{0, 0, 1, 1, 1, 1})
	leaf := func(ids ...int32) wireFlat {
		return wireFlat{Opt: DefaultOptions(), InitialN: ps.N(), Kinds: []uint8{1},
			Counts: []int32{int32(len(ids))}, IDs: ids}
	}
	if _, err := Load(encodeTree(t, leaf(0, 1, 2)), ps); err != nil {
		t.Fatalf("the well-formed leaf does not load: %v", err)
	}
	for name, wf := range map[string]wireFlat{
		"a point twice":   leaf(0, 1, 1),
		"a point missing": leaf(0, 1),
	} {
		if _, err := Load(encodeTree(t, wf), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadRejectsOverfullNodes: every walk and crack assumes a leaf holds
// at most LeafCap points and an internal node at most Fanout children.
func TestLoadRejectsOverfullNodes(t *testing.T) {
	ps := NewPointSet(1, []float64{0, 1, 2})
	opt := Options{LeafCap: 2, Fanout: 2}
	tree := func(kinds []uint8, counts []int32) wireFlat {
		return wireFlat{Opt: opt, InitialN: ps.N(), Kinds: kinds, Counts: counts, IDs: []int32{0, 1, 2}}
	}
	wellFormed := tree([]uint8{0, 1, 1}, []int32{2, 2, 1})
	if _, err := Load(encodeTree(t, wellFormed), ps); err != nil {
		t.Fatalf("the well-formed tree does not load: %v", err)
	}
	for name, wf := range map[string]wireFlat{
		"leaf over LeafCap": tree([]uint8{1}, []int32{3}),
		"node over Fanout":  tree([]uint8{0, 1, 1, 1}, []int32{3, 1, 1, 1}),
	} {
		if _, err := Load(encodeTree(t, wf), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}
