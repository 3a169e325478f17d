package phtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vkgraph/internal/scan"
)

func randomData(n, dim int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, n*dim)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return data
}

func TestKNNMatchesBruteForce(t *testing.T) {
	for _, dim := range []int{3, 10, 50} {
		data := randomData(800, dim, int64(dim))
		tr, err := New(dim, data, DefaultConfig())
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rng := rand.New(rand.NewSource(99))
		for qi := 0; qi < 20; qi++ {
			q := make([]float64, dim)
			for j := range q {
				q[j] = rng.NormFloat64()
			}
			got, _ := tr.KNN(q, 10, nil)
			want := scan.TopK(dim, data, q, 10, scan.SqL2, nil)
			if len(got) != len(want) {
				t.Fatalf("dim=%d: got %d results, want %d", dim, len(got), len(want))
			}
			for i := range got {
				// Compare distances, not ids: ties may order differently.
				if diff := got[i].SqDist - want[i].Dist; diff > 1e-9 || diff < -1e-9 {
					t.Fatalf("dim=%d q=%d rank %d: dist %v, want %v", dim, qi, i, got[i].SqDist, want[i].Dist)
				}
			}
		}
	}
}

func TestKNNSkip(t *testing.T) {
	dim := 5
	data := randomData(300, dim, 7)
	tr, err := New(dim, data, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := make([]float64, dim)
	full, _ := tr.KNN(q, 5, nil)
	banned := full[0].ID
	res, _ := tr.KNN(q, 5, func(id int32) bool { return id == banned })
	for _, r := range res {
		if r.ID == banned {
			t.Fatalf("skipped id %d returned", banned)
		}
	}
	want := scan.TopK(dim, data, q, 5, scan.SqL2, func(id int32) bool { return id == banned })
	for i := range res {
		if diff := res[i].SqDist - want[i].Dist; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("rank %d: dist %v, want %v", i, res[i].SqDist, want[i].Dist)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	dim := 4
	n := 100
	data := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			data[i*dim+j] = float64(j) // all points identical
		}
	}
	tr, err := New(dim, data, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if tr.N() != n {
		t.Fatalf("N = %d, want %d", tr.N(), n)
	}
	res, _ := tr.KNN([]float64{0, 1, 2, 3}, 10, nil)
	if len(res) != 10 {
		t.Fatalf("got %d results, want 10", len(res))
	}
	for _, r := range res {
		if r.SqDist != 0 {
			t.Fatalf("distance %v, want 0", r.SqDist)
		}
	}
}

func TestEmptyAndInvalid(t *testing.T) {
	if _, err := New(0, nil, DefaultConfig()); err == nil {
		t.Fatal("dim 0 accepted")
	}
	if _, err := New(65, nil, DefaultConfig()); err == nil {
		t.Fatal("dim 65 accepted")
	}
	if _, err := New(3, []float64{1, 2}, DefaultConfig()); err == nil {
		t.Fatal("ragged data accepted")
	}
	tr, err := New(3, nil, DefaultConfig())
	if err != nil {
		t.Fatalf("empty data rejected: %v", err)
	}
	if res, _ := tr.KNN([]float64{0, 0, 0}, 3, nil); len(res) != 0 {
		t.Fatalf("empty tree returned %d results", len(res))
	}
}

func TestHighDimVisitsManyNodes(t *testing.T) {
	// The property the paper's Fig. 3 relies on: at high dimensionality the
	// trie prunes poorly, so kNN visits a large share of the nodes.
	dim := 50
	data := randomData(1500, dim, 5)
	tr, err := New(dim, data, DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	q := make([]float64, dim)
	_, visited := tr.KNN(q, 10, nil)
	if total := tr.NumNodes(); visited*4 < total {
		t.Logf("visited %d of %d nodes", visited, total)
		t.Fatal("unexpectedly good pruning at dim 50; baseline would misrepresent the paper")
	}
}

func TestQuickKNNTopDistance(t *testing.T) {
	f := func(seed int64) bool {
		dim := 2 + int(seed%7+7)%7
		data := randomData(200, dim, seed)
		tr, err := New(dim, data, Config{Bits: 12})
		if err != nil {
			return false
		}
		q := make([]float64, dim)
		rng := rand.New(rand.NewSource(seed ^ 0xabc))
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		got, _ := tr.KNN(q, 1, nil)
		want := scan.TopK(dim, data, q, 1, scan.SqL2, nil)
		if len(got) != 1 || len(want) != 1 {
			return false
		}
		d := got[0].SqDist - want[0].Dist
		return d < 1e-9 && d > -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
