package points

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomSet returns n uniform points in [0,1]^dim.
func randomSet(n, dim int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]float64, n*dim)
	for i := range rows {
		rows[i] = rng.Float64()
	}
	return New(dim, rows)
}

// clusteredSet returns points drawn from a few Gaussian blobs, a shape
// closer to transformed embedding vectors.
func clusteredSet(n, dim, clusters int, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float64, clusters)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = rng.Float64() * 10
		}
	}
	rows := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		c := centers[rng.Intn(clusters)]
		for d := 0; d < dim; d++ {
			rows[i*dim+d] = c[d] + rng.NormFloat64()*0.5
		}
	}
	return New(dim, rows)
}

// TestLeafScanKernels holds the two scans — a leaf's page, a pending
// element's ids — to a brute-force pass with SqDistTo: the same pairs, in
// the same order, every distance bit-equal.
func TestLeafScanKernels(t *testing.T) {
	const dim = 3
	ps := clusteredSet(500, dim, 5, 73)
	rng := rand.New(rand.NewSource(74))
	for _, batch := range []int{0, 1, 4, 32, 100, 500} {
		ids := make([]int32, batch)
		for i := range ids {
			ids[i] = int32(rng.Intn(ps.N()))
		}
		var pg Page
		pg.Fill(ps, slices.Clone(ids))
		if err := pg.Check(ps); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64() * 10
		}
		for _, bound := range []float64{0, 0.5, 4, 1e9, math.Inf(1)} {
			var want []Item
			for _, id := range ids {
				if d := ps.SqDistTo(id, q); d <= bound {
					want = append(want, Item{D: d, Ref: id})
				}
			}
			if got := ps.AppendWithin(nil, ids, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: id scan appended %v, want %v", batch, bound, got, want)
			}
			if got := pg.AppendWithin(nil, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: page scan appended %v, want %v", batch, bound, got, want)
			}
		}
	}
}

// TestGatherSqDists pins the bulk kernel to the scalar one.
func TestGatherSqDists(t *testing.T) {
	ps := randomSet(200, 3, 76)
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
