package rtree

import (
	"math/rand"
	"slices"
	"testing"
)

// twinPointSets returns two point sets over identical coordinates, one
// packed and one not, plus the shared dimensionality.
func twinPointSets(n, dim int, seed int64) (packed, plain *PointSet) {
	base := clusteredPointSet(n, dim, 5, seed)
	coords := make([]float64, 0, n*dim)
	for i := 0; i < base.N(); i++ {
		coords = append(coords, base.At(int32(i))...)
	}
	packed = NewPointSet(dim, append([]float64(nil), coords...))
	packed.EnablePacked()
	plain = NewPointSet(dim, coords)
	return packed, plain
}

// TestPackedWalkByteIdentical is the exactness contract of packed.go: the
// float32 prefilter must never change which points a walk emits, their
// order, or their (exact float64) distances — bit for bit.
func TestPackedWalkByteIdentical(t *testing.T) {
	const dim = 3
	pps, ups := twinPointSets(3000, dim, 71)
	ptr := NewCracking(pps, DefaultOptions())
	utr := NewCracking(ups, DefaultOptions())
	rng := rand.New(rand.NewSource(72))
	for i := 0; i < 16; i++ {
		q := randomQuery(rng, dim, 0, 10)
		ptr.Crack(q)
		utr.Crack(q)
	}
	type hit struct {
		id int32
		d  float64
	}
	for i := 0; i < 32; i++ {
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64() * 10
		}
		var ph, uh []hit
		stop := 200
		ptr.WalkAscending(q, func(id int32, d float64) bool {
			ph = append(ph, hit{id, d})
			return len(ph) < stop
		})
		utr.WalkAscending(q, func(id int32, d float64) bool {
			uh = append(uh, hit{id, d})
			return len(uh) < stop
		})
		if len(ph) != len(uh) {
			t.Fatalf("query %d: packed walk emitted %d points, unpacked %d", i, len(ph), len(uh))
		}
		for j := range ph {
			if ph[j] != uh[j] {
				t.Fatalf("query %d position %d: packed (id %d, d %v) != unpacked (id %d, d %v)",
					i, j, ph[j].id, ph[j].d, uh[j].id, uh[j].d)
			}
		}
	}
}

// TestPackedAppendWithin checks the leaf scan, with and without the
// prefilter, against a brute-force scan on both sides of the small-batch
// fallback threshold: same pairs, same order.
func TestPackedAppendWithin(t *testing.T) {
	const dim = 3
	pps, ups := twinPointSets(500, dim, 73)
	rng := rand.New(rand.NewSource(74))
	for _, batch := range []int{4, 15, 16, 100, 500} {
		ids := make([]int32, batch)
		for i := range ids {
			ids[i] = int32(rng.Intn(pps.N()))
		}
		q := make([]float64, dim)
		for d := range q {
			q[d] = rng.Float64() * 10
		}
		for _, bound := range []float64{0, 0.5, 4, 1e9} {
			var want []walkPoint
			for _, id := range ids {
				if d := ups.SqDistTo(id, q); d <= bound {
					want = append(want, walkPoint{d: d, id: id})
				}
			}
			if got := pps.appendWithin(nil, ids, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: packed appended %v, want %v", batch, bound, got, want)
			}
			if got := ups.appendWithin(nil, ids, q, bound); !slices.Equal(got, want) {
				t.Fatalf("batch %d bound %v: unpacked appended %v, want %v", batch, bound, got, want)
			}
		}
	}
}

// TestPackedAppendPoint verifies the mirror tracks AppendPoint: a point
// added after EnablePacked must be filterable like any other.
func TestPackedAppendPoint(t *testing.T) {
	ps := randomPointSet(100, 2, 75)
	ps.EnablePacked()
	id := ps.AppendPoint([]float64{0.25, 0.25})
	ids := make([]int32, ps.N())
	for i := range ids {
		ids[i] = int32(i)
	}
	if !slices.Contains(ps.appendWithin(nil, ids, []float64{0.25, 0.25}, 1e-9), walkPoint{d: 0, id: id}) {
		t.Fatal("appended point invisible to the packed prefilter")
	}
	if ps.PackedBytes() < ps.N()*2*4 {
		t.Fatalf("PackedBytes %d below %d points * dim 2 * 4 bytes", ps.PackedBytes(), ps.N())
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

// TestEnablePackedIdempotent: enabling twice must not rebuild or double
// the mirror.
func TestEnablePackedIdempotent(t *testing.T) {
	ps := randomPointSet(64, 3, 78)
	ps.EnablePacked()
	before := ps.PackedBytes()
	ps.EnablePacked()
	if ps.PackedBytes() != before {
		t.Fatalf("second EnablePacked changed PackedBytes: %d -> %d", before, ps.PackedBytes())
	}
	if !ps.Packed() {
		t.Fatal("Packed() false after EnablePacked")
	}
}
