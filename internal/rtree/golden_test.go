package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// goldenShape is what a seeded point set and crack sequence must produce:
// any drift in a sort order, a split choice or an installed MBR shows up
// here as a changed hash. The values for roots below parallelSortMin points
// and for the bulk load predate the radix root sort and the one-pass split
// evaluation; those above it were regenerated when the root became
// pre-split.
type goldenShape struct {
	hash    uint64
	splits  int
	nodes   int
	created int
}

func shapeOf(trees ...*Tree) goldenShape {
	var g goldenShape
	for _, tr := range trees {
		st := tr.Stats()
		g.hash = g.hash*1099511628211 ^ tr.StructureHash()
		g.splits += st.BinarySplits
		g.nodes += st.TotalNodes
		g.created += tr.created
	}
	return g
}

func goldenQueries() []Rect {
	rng := rand.New(rand.NewSource(99))
	qs := make([]Rect, 200)
	for i := range qs {
		qs[i] = randomQuery(rng, 3, 0, 10)
	}
	return qs
}

func TestGoldenStructure(t *testing.T) {
	ps := clusteredPointSet(20000, 3, 16, 7)
	queries := goldenQueries()
	crackAll := func(trees ...*Tree) goldenShape {
		for _, q := range queries {
			for _, tr := range trees {
				tr.Crack(q)
			}
		}
		for _, tr := range trees {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		}
		return shapeOf(trees...)
	}
	// Inserts overflow leaves back into pending elements, whose sort orders
	// are rebuilt from ids in leaf (not ascending) order. n points start the
	// tree: below parallelSortMin under a single pending root, above it
	// under a pre-split one that the inserts descend through.
	grown := func(n int) goldenShape {
		ps := clusteredPointSet(n, 3, 4, 8)
		tr := NewCracking(ps, DefaultOptions())
		rng := rand.New(rand.NewSource(100))
		for _, q := range queries[:50] {
			tr.Crack(q)
		}
		for i := 0; i < 3000; i++ {
			src := ps.At(int32(rng.Intn(n)))
			pt := []float64{src[0] + rng.NormFloat64()*0.1, src[1] + rng.NormFloat64()*0.1, src[2] + rng.NormFloat64()*0.1}
			tr.Insert(ps.AppendPoint(pt))
		}
		for _, q := range queries[50:] {
			tr.Crack(q)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return shapeOf(tr)
	}

	cases := []struct {
		name string
		got  goldenShape
		want goldenShape
	}{
		{"greedy", crackAll(NewCracking(ps, DefaultOptions())),
			goldenShape{0x9824862e28868d09, 366, 532, 532}},
		{"greedy-inserts", grown(5000),
			goldenShape{0x46e8ba0bb7b0b1b8, 125, 167, 167}},
		{"greedy-inserts-presplit", grown(12000),
			goldenShape{0xbdb3677d64eb1533, 194, 269, 269}},
		{"bulk", shapeOf(NewBulkLoaded(ps, DefaultOptions())),
			goldenShape{0xb7bfe474dfcaef34, 1023, 1609, 1609}},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: shape %#v, want %#v", c.name, c.got, c.want)
		}
	}
}

// TestStructureHashReadsZeroByValue: a lattice of {-1, 0, 1} with zeros of
// both signs, where most bounds are zero, and its twin with every -0 made
// +0 differ only in bits no comparison can see, so the same cracks give
// both the same shape. Their trees must hash equal, and so must each
// tree's Save/Load copy, whose boxes are derived in another order than the
// splits grew them. The sizes put the root under and over
// parallelSortMin.
func TestStructureHashReadsZeroByValue(t *testing.T) {
	reload := func(tr *Tree, ps *PointSet) *Tree {
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf, ps)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := 2 + rng.Intn(3)
		n := []int{300, 3000, parallelSortMin + 300}[seed%3]
		mixed := make([]float64, n*dim)
		positive := make([]float64, n*dim)
		for i := range mixed {
			positive[i] = float64(rng.Intn(3) - 1)
			mixed[i] = positive[i]
			if mixed[i] == 0 && rng.Intn(2) == 0 {
				mixed[i] = math.Copysign(0, -1)
			}
		}
		ps, twin := NewPointSet(dim, mixed), NewPointSet(dim, positive)
		a, b := NewCracking(ps, DefaultOptions()), NewCracking(twin, DefaultOptions())
		for i := 0; i < 8; i++ {
			q := BallRect(ps.At(int32(rng.Intn(n))), 0.5+rng.Float64())
			a.Crack(q)
			b.Crack(q)
		}
		if a.Splits() == 0 {
			t.Fatalf("seed %d: the cracks split nothing", seed)
		}
		want := a.StructureHash()
		for name, tr := range map[string]*Tree{"twin": b, "saved": reload(a, ps), "saved twin": reload(b, twin)} {
			if got := tr.StructureHash(); got != want {
				t.Fatalf("seed %d: the %s tree hashes %#x, the tree %#x", seed, name, got, want)
			}
		}
	}
}
