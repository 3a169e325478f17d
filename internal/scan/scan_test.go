package scan

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func randomData(n, dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return data
}

func naiveTopK(dim int, data, q []float64, k int, norm Norm, skip func(int32) bool) []Neighbor {
	n := len(data) / dim
	var all []Neighbor
	for i := 0; i < n; i++ {
		if skip != nil && skip(int32(i)) {
			continue
		}
		var s float64
		for j, v := range q {
			d := data[i*dim+j] - v
			if norm == L1 {
				s += math.Abs(d)
			} else {
				s += d * d
			}
		}
		all = append(all, Neighbor{ID: int32(i), Dist: s})
	}
	sort.Slice(all, func(a, b int) bool { return less(all[a], all[b]) })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func TestTopKMatchesNaive(t *testing.T) {
	dim := 6
	data := randomData(500, dim, 1)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		q := make([]float64, dim)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		for _, norm := range []Norm{SqL2, L1} {
			got := TopK(dim, data, q, 7, norm, nil)
			want := naiveTopK(dim, data, q, 7, norm, nil)
			if len(got) != len(want) {
				t.Fatalf("norm %d: lengths: %d vs %d", norm, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("norm %d rank %d: %+v vs %+v", norm, j, got[j], want[j])
				}
			}
		}
	}
}

func TestTopKSkipAndEdgeCases(t *testing.T) {
	dim := 3
	data := randomData(50, dim, 3)
	q := []float64{0, 0, 0}
	if got := TopK(dim, data, q, 0, SqL2, nil); got != nil {
		t.Fatalf("k=0 returned %v", got)
	}
	all := TopK(dim, data, q, 100, SqL2, nil)
	if len(all) != 50 {
		t.Fatalf("k > n returned %d", len(all))
	}
	banned := all[0].ID
	filtered := TopK(dim, data, q, 5, SqL2, func(id int32) bool { return id == banned })
	for _, nb := range filtered {
		if nb.ID == banned {
			t.Fatal("skip ignored")
		}
	}
}

func TestWithin(t *testing.T) {
	dim := 2
	data := []float64{0, 0, 1, 0, 3, 0, 0, 2}
	got := Within(dim, data, []float64{0, 0}, 4.0, SqL2, nil)
	if len(got) != 3 {
		t.Fatalf("Within returned %d, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Dist > got[i].Dist {
			t.Fatal("Within not sorted")
		}
	}
	if got[0].ID != 0 || got[0].Dist != 0 {
		t.Fatalf("closest = %+v", got[0])
	}
	// Under L1 the point (1, 1) is 2 away, beyond a radius of 1.9, though
	// its Euclidean distance is only 1.41.
	data = []float64{0, 0, 1, 1, 0, 1.5}
	got = Within(dim, data, []float64{0, 0}, 1.9, L1, nil)
	if len(got) != 2 || got[1].ID != 2 || got[1].Dist != 1.5 {
		t.Fatalf("L1 Within = %+v, want ids 0 and 2", got)
	}
}

func TestQuickTopKIsSubsetOfWithin(t *testing.T) {
	f := func(seed int64) bool {
		dim := 4
		data := randomData(100, dim, seed)
		q := make([]float64, dim)
		rng := rand.New(rand.NewSource(seed ^ 0x77))
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		top := TopK(dim, data, q, 10, SqL2, nil)
		if len(top) != 10 {
			return false
		}
		r := top[len(top)-1].Dist
		within := Within(dim, data, q, r, SqL2, nil)
		// Every top-k member is inside the radius-r ball.
		set := map[int32]bool{}
		for _, nb := range within {
			set[nb.ID] = true
		}
		for _, nb := range top {
			if !set[nb.ID] {
				return false
			}
		}
		// And distances are monotone.
		for i := 1; i < len(top); i++ {
			if top[i-1].Dist > top[i].Dist {
				return false
			}
		}
		return !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
