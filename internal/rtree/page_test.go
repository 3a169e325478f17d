package rtree

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestLeafScanKernels holds the two scans — a leaf's page, a pending
// element's ids — to a brute-force pass with SqDistTo: the same pairs, in
// the same order, every distance bit-equal.
func TestLeafScanKernels(t *testing.T) {
	const dim = 3
	ps := clusteredPointSet(500, dim, 5, 73)
	rng := rand.New(rand.NewSource(74))
	for _, batch := range []int{0, 1, 4, 32, 100, 500} {
		ids := make([]int32, batch)
		for i := range ids {
			ids[i] = int32(rng.Intn(ps.N()))
		}
		var pg leafPage
		pg.fill(ps, slices.Clone(ids))
		if err := pg.check(ps); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64() * 10
		}
		for _, bound := range []float64{0, 0.5, 4, 1e9, math.Inf(1)} {
			var want []walkItem
			for _, id := range ids {
				if d := ps.SqDistTo(id, q); d <= bound {
					want = append(want, walkItem{d: d, ref: id})
				}
			}
			if got := ps.appendWithin(nil, ids, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: id scan appended %v, want %v", batch, bound, got, want)
			}
			if got := pg.appendWithin(nil, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: page scan appended %v, want %v", batch, bound, got, want)
			}
		}
	}
}

// TestGatherSqDists pins the bulk kernel to the scalar one.
func TestGatherSqDists(t *testing.T) {
	ps := randomPointSet(200, 3, 76)
	rng := rand.New(rand.NewSource(77))
	ids := make([]int32, 50)
	for i := range ids {
		ids[i] = int32(rng.Intn(ps.N()))
	}
	q := []float64{0.3, 0.6, 0.9}
	out := make([]float64, len(ids))
	ps.GatherSqDists(ids, q, out)
	for i, id := range ids {
		if want := ps.SqDistTo(id, q); out[i] != want {
			t.Fatalf("id %d: GatherSqDists %v != SqDistTo %v", id, out[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GatherSqDists accepted a mismatched output length")
		}
	}()
	ps.GatherSqDists(ids, q, make([]float64, len(ids)-1))
}

// TestEnablePackedIdempotent: the deprecated call, once or twice, before or
// after a tree exists, leaves walks and structure as they were.
func TestEnablePackedIdempotent(t *testing.T) {
	ps := randomPointSet(64, 3, 78)
	tr := NewCracking(ps, DefaultOptions())
	tr.Crack(BallRect([]float64{0.5, 0.5, 0.5}, 0.2))
	q := []float64{0.4, 0.5, 0.6}
	walk := func() []walkItem {
		return walkTree(tr, q, func(int) float64 { return 0.3 }, -1, nil)
	}
	before, hash := walk(), tr.StructureHash()
	ps.EnablePacked()
	ps.EnablePacked()
	if !slices.Equal(walk(), before) || tr.StructureHash() != hash {
		t.Fatal("EnablePacked changed a walk or the structure")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestLeafPagesFollowMutations is the differential test of page
// maintenance. On a tree — now and then one large enough for a pre-split
// root — it interleaves cracks, inserts (single ones, and bursts of
// duplicates that push a leaf past LeafCap back to pending, re-cracked
// afterwards) and a save/load of a tree; a bulk loaded tree takes the place
// of the cracking one now and then. After every step CheckInvariants —
// every page row bit-equal to its point — must hold and the bounded walk,
// the unbounded walk and SummarizeBall must equal a brute-force scan of the
// points.
func TestLeafPagesFollowMutations(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		dim := 2 + rng.Intn(2)
		n := 60 + rng.Intn(200)
		if seed%50 == 0 {
			n = parallelSortMin + rng.Intn(200)
		}
		coords := make([]float64, 0, n*dim)
		for i := 0; i < n; i++ {
			for d := 0; d < dim; d++ {
				if rng.Intn(3) == 0 {
					coords = append(coords, rng.Float64()*6)
				} else {
					coords = append(coords, float64(rng.Intn(7)))
				}
			}
		}
		ps := NewPointSet(dim, coords)
		opt := DefaultOptions()
		opt.LeafCap = []int{4, 8, 32}[rng.Intn(3)]
		opt.Fanout = 3 + rng.Intn(6)
		tr := NewCracking(ps, opt)
		if rng.Intn(9) == 0 {
			tr = NewBulkLoaded(ps, opt)
		}

		check := func(step string) {
			t.Helper()
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("seed %d after %s: %v", seed, step, err)
			}
			q := make([]float64, dim)
			for d := range q {
				q[d] = float64(rng.Intn(13)) / 2
			}
			radius := float64(1+rng.Intn(7)) / 2
			for _, bound := range []float64{radius * radius, math.Inf(1)} {
				var want []walkItem
				for id := int32(0); int(id) < ps.N(); id++ {
					if d := ps.SqDistTo(id, q); d <= bound {
						want = append(want, walkItem{d: d, ref: id})
					}
				}
				slices.SortFunc(want, func(a, b walkItem) int {
					return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.ref, b.ref))
				})
				got := walkTree(tr, q, func(int) float64 { return bound }, -1, nil)
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d after %s: walk within %v visits %d points, the scan %d", seed, step, bound, len(got), len(want))
				}
				if math.IsInf(bound, 1) {
					continue
				}
				var ball []walkItem
				st := tr.SummarizeBall(q, radius, -1, func(id int32, d float64) {
					ball = append(ball, walkItem{d: d, ref: id})
				})
				slices.SortFunc(ball, func(a, b walkItem) int { return int(a.ref - b.ref) })
				slices.SortFunc(want, func(a, b walkItem) int { return int(a.ref - b.ref) })
				if st.Count != len(ball) || !slices.Equal(ball, want) {
					t.Fatalf("seed %d after %s: SummarizeBall counts %d, reports %d points, the scan %d", seed, step, st.Count, len(ball), len(want))
				}
			}
		}
		insert := func(pt []float64) { tr.Insert(ps.AppendPoint(pt)) }

		check("build")
		for step := 0; step < 30; step++ {
			switch op := rng.Intn(5); op {
			case 0, 1:
				tr.Crack(randomQuery(rng, dim, 0, 6))
				check("crack")
			case 2:
				pt := make([]float64, dim)
				for d := range pt {
					pt[d] = rng.Float64() * 6
				}
				insert(pt)
				check("insert")
			case 3:
				// Duplicates descend to one leaf: LeafCap+1 of them overflow
				// it to pending, and the crack around them splits it again.
				pt := slices.Clone(ps.At(int32(rng.Intn(ps.N()))))
				for i := 0; i <= opt.LeafCap; i++ {
					insert(pt)
					check("burst insert")
				}
				tr.Crack(BallRect(pt, 0.5))
				check("crack after overflow")
			case 4:
				var buf bytes.Buffer
				if err := tr.Save(&buf); err != nil {
					t.Fatal(err)
				}
				hash := tr.StructureHash()
				loaded, err := Load(&buf, ps)
				if err != nil {
					t.Fatalf("seed %d: load: %v", seed, err)
				}
				if loaded.StructureHash() != hash {
					t.Fatalf("seed %d: a loaded tree hashes differently", seed)
				}
				tr = loaded
				check("save and load")
			}
		}
	}
}
