package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// ballOracle computes a BallStats the slow way: the count by a scan of
// every point, the element statistics from every contour element's points
// with nothing cached.
func ballOracle(tr *Tree, center []float64, radius float64, attr int) (BallStats, []int32) {
	ps := tr.ps
	want := BallStats{Min: math.Inf(1), Max: math.Inf(-1)}
	var ids []int32
	box := BallRect(center, radius)
	tr.ensureRoot()
	tr.root.eachElement(nil, func(nd *node) {
		mbr, elem := nd.mbr, nd.ids()
		for _, id := range elem {
			if _, ok := ps.AttrValue(max(attr, 0), id); (ok || attr < 0) && ps.SqDistTo(id, center) <= radius*radius {
				want.Count++
				ids = append(ids, id)
			}
		}
		if attr < 0 || !mbr.Overlaps(box) {
			return
		}
		st := ps.attrStats(attr, elem)
		if st.Count == 0 {
			return
		}
		want.MaxAbs = max(want.MaxAbs, st.MaxAbs)
		if mbr.MaxSqDist(center) <= radius*radius {
			want.Min, want.Max = min(want.Min, st.Min), max(want.Max, st.Max)
		}
	})
	return want, sortIDs(ids)
}

// TestSummarizeBall is the differential test of the unordered descent: on
// fresh, cracked and updated trees, below and above the size at which the
// root is pre-split, with and without the per-point callback, its counts
// equal a scan of every point and its element statistics equal ones
// computed afresh — so a cache that an Insert, a changed attribute value
// or a newly registered attribute should have dropped shows up as a
// difference.
func TestSummarizeBall(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1500
		if seed%5 == 4 {
			n = parallelSortMin + 500
		}
		ps := clusteredPointSet(n, 3, 4, 19+seed)
		col := make([]float64, ps.N(), ps.N()+64)
		for i := range col {
			col[i] = float64(rng.Intn(200) - 100)
			if rng.Intn(3) == 0 {
				col[i] = math.NaN()
			}
		}
		ps.RegisterAttr("val", col)
		opt := DefaultOptions()
		if seed%3 == 0 {
			opt.LeafCap, opt.Fanout = 8, 3
		}
		tr := NewCracking(ps, opt)
		attrs := 1
		checkBall := func(what string, center []float64, radius float64) {
			t.Helper()
			for attr := -1; attr < attrs; attr++ {
				want, wantIDs := ballOracle(tr, center, radius, attr)
				var ids []int32
				got := tr.SummarizeBall(center, radius, attr, func(id int32, d float64) {
					if d != ps.SqDistTo(id, center) {
						t.Fatalf("seed %d, %s: point %d reported at %v", seed, what, id, d)
					}
					ids = append(ids, id)
				})
				if got != want || !equalIDs(sortIDs(ids), wantIDs) {
					t.Fatalf("seed %d, %s, attr %d, with callback: got %+v over %d points, want %+v over %d",
						seed, what, attr, got, len(ids), want, len(wantIDs))
				}
				if attr >= 0 {
					if got := tr.SummarizeBall(center, radius, attr, nil); got != want {
						t.Fatalf("seed %d, %s, attr %d: got %+v, want %+v", seed, what, attr, got, want)
					}
				}
			}
		}
		// A random ball, then one holding every point: it reads (and caches)
		// every element, so each update below lands on a cached one.
		check := func(what string) {
			t.Helper()
			center := slices.Clone(ps.At(int32(rng.Intn(ps.N()))))
			center[0] += rng.Float64() - 0.5
			checkBall(what, center, 0.2+4*rng.Float64())
			checkBall(what+", whole space", center, 1e3)
		}
		check("fresh")
		for round := 0; round < 6; round++ {
			for c := 1 + rng.Intn(4); c > 0; c-- {
				tr.Crack(randomQuery(rng, 3, 0, 10))
			}
			check("cracked")
			switch round {
			case 1: // new values, larger than any cached extremum or below it
				for c := 0; c < 40; c++ {
					id := int32(rng.Intn(ps.N()))
					col[id] = float64(rng.Intn(2000) - 1000)
					tr.NoteAttr(id)
				}
				check("after NoteAttr")
			case 2:
				for c := 0; c < 40; c++ {
					pt := slices.Clone(ps.At(int32(rng.Intn(ps.N()))))
					pt[1] += rng.Float64()
					col = append(col, float64(5000+c))
					ps.RefreshAttr("val", col)
					tr.Insert(ps.AppendPoint(pt))
				}
				check("after Insert")
			case 3:
				late := make([]float64, ps.N())
				for i := range late {
					late[i] = -float64(i)
				}
				ps.RegisterAttr("late", late)
				attrs = 2
				check("after RegisterAttr")
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
