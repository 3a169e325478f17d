package rtree

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math/rand"
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
// Algorithm 2 carries SplitChoices, MaxCandidatePops, an Explored count and
// a Deleted list (always empty, so gob writes none of it).
// It loads to the same shape and cracks on greedily, like the tree it was
// saved from.
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
		Kinds: wf.Kinds, Counts: wf.Counts, Mbrs: wf.Mbrs, IDs: wf.IDs,
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

// encodeTree wraps a tree payload (a wireFlat, or a struct gob matches to
// one) in a fresh header and section, as Save does, so that a test can load
// an edited blob whose checksum is valid.
func encodeTree(t *testing.T, wf any) *bytes.Buffer {
	t.Helper()
	var payload, blob bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wf); err != nil {
		t.Fatal(err)
	}
	if err := snapfmt.WriteHeader(&blob, treeMagic, treeVersion, 1); err != nil {
		t.Fatal(err)
	}
	if err := snapfmt.WriteSection(&blob, secTreeFlat, payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	return &blob
}

// decodeTree returns the payload Save writes for tr.
func decodeTree(t *testing.T, tr *Tree) wireFlat {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snapfmt.ReadHeader(&buf, treeMagic, treeVersion, treeVersion); err != nil {
		t.Fatal(err)
	}
	_, payload, err := snapfmt.ReadSection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wf wireFlat
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wf); err != nil {
		t.Fatal(err)
	}
	return wf
}

// TestLoadRejectsWrongBoxes: the walks and Search prune by the stored
// boxes, so a blob with a valid checksum whose box is not the box of the
// points below it must be refused, not loaded to hide those points. The
// blobs are a saved 2,500-point cracked tree with the last node's box moved
// to the point 1e6, and with the root's box widened.
func TestLoadRejectsWrongBoxes(t *testing.T) {
	ps := clusteredPointSet(2500, 3, 5, 61)
	tr := NewCracking(ps, DefaultOptions())
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 24; i++ {
		tr.Crack(randomQuery(rng, 3, 0, 10))
	}
	if _, err := Load(encodeTree(t, decodeTree(t, tr)), ps); err != nil {
		t.Fatalf("the re-encoded tree does not load: %v", err)
	}
	for name, edit := range map[string]func(mbrs []float64){
		"last node moved": func(mbrs []float64) {
			for i := len(mbrs) - 2*ps.Dim; i < len(mbrs); i++ {
				mbrs[i] = 1e6
			}
		},
		"root widened": func(mbrs []float64) { mbrs[0] -= 1 },
	} {
		wf := decodeTree(t, tr)
		edit(wf.Mbrs)
		if _, err := Load(encodeTree(t, wf), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestLoadRejectsRepeatedIDs: every point is in the contour exactly once.
// The blobs are one leaf over three points, the third a copy of the
// second, so that every box is right: the leaf lists the second point
// twice and the third not at all, or leaves the third out.
func TestLoadRejectsRepeatedIDs(t *testing.T) {
	ps := NewPointSet(2, []float64{0, 0, 1, 1, 1, 1})
	leaf := func(ids ...int32) wireFlat {
		return wireFlat{Opt: DefaultOptions(), InitialN: ps.N(), Kinds: []uint8{1},
			Counts: []int32{int32(len(ids))}, Mbrs: []float64{0, 0, 1, 1}, IDs: ids}
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
	tree := func(kinds []uint8, counts []int32, mbrs []float64) wireFlat {
		return wireFlat{Opt: opt, InitialN: ps.N(), Kinds: kinds, Counts: counts, Mbrs: mbrs, IDs: []int32{0, 1, 2}}
	}
	wellFormed := tree([]uint8{0, 1, 1}, []int32{2, 2, 1}, []float64{0, 2, 0, 1, 2, 2})
	if _, err := Load(encodeTree(t, wellFormed), ps); err != nil {
		t.Fatalf("the well-formed tree does not load: %v", err)
	}
	for name, wf := range map[string]wireFlat{
		"leaf over LeafCap": tree([]uint8{1}, []int32{3}, []float64{0, 2}),
		"node over Fanout":  tree([]uint8{0, 1, 1, 1}, []int32{3, 1, 1, 1}, []float64{0, 2, 0, 0, 1, 1, 2, 2}),
	} {
		if _, err := Load(encodeTree(t, wf), ps); !errors.Is(err, snapfmt.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}
