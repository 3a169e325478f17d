package rtree

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vkgraph/internal/raceflag"
)

// walkOracle is the brute-force reference for a walk: every point sorted by
// (sqDist, id), cut where the walk's rule cuts it — before each point the
// bound is read (as a function of the points visited so far) and the walk
// ends at the first point beyond it, or after stop points.
func walkOracle(ps *PointSet, q []float64, bound func(visited int) float64, stop int) []walkPoint {
	all := make([]walkPoint, ps.N())
	for i := range all {
		all[i] = walkPoint{d: ps.SqDistTo(int32(i), q), id: int32(i)}
	}
	slices.SortFunc(all, func(a, b walkPoint) int {
		return cmp.Or(cmp.Compare(a.d, b.d), cmp.Compare(a.id, b.id))
	})
	for i, p := range all {
		if i == stop || p.d > bound(i) {
			return all[:i]
		}
	}
	return all
}

// walkTree records the visit sequence of a walk under the same rule as
// walkOracle. inner, when non-nil, runs from inside the callback of
// the third visited point.
func walkTree(tr *Tree, q []float64, bound func(visited int) float64, stop int, inner func()) []walkPoint {
	var got []walkPoint
	tr.WalkWithin(q, func() float64 { return bound(len(got)) }, func(id int32, d float64) bool {
		got = append(got, walkPoint{d: d, id: id})
		if inner != nil && len(got) == 3 {
			inner()
		}
		return len(got) != stop
	})
	return got
}

// TestWalkMatchesSortedScan is the randomized differential test of the run
// frontier: over a random crack sequence, on trees below and above the size
// at which the root is pre-split, the visit sequence must equal the
// (sqDist, id)-sorted scan under a fixed bound, no bound, and a bound that
// shrinks with the points visited; an early stop
// must leave the next walk on the goroutine intact, and so must a walk
// started from inside a visit callback. Coordinates sit on a coarse
// lattice, with exact duplicates, so equal distances — the id tie-break —
// occur in every run.
func TestWalkMatchesSortedScan(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		dim := 2 + rng.Intn(2)
		n := 100 + rng.Intn(300)
		if seed%40 == 0 {
			n = parallelSortMin + rng.Intn(300)
		}
		coords := make([]float64, 0, n*dim)
		for i := 0; i < n; i++ {
			switch {
			case i > 0 && rng.Intn(8) == 0: // exact duplicate of an earlier point
				j := rng.Intn(i)
				coords = append(coords, coords[j*dim:(j+1)*dim]...)
			case rng.Intn(4) == 0: // off-lattice
				for d := 0; d < dim; d++ {
					coords = append(coords, rng.Float64()*6)
				}
			default:
				for d := 0; d < dim; d++ {
					coords = append(coords, float64(rng.Intn(7)))
				}
			}
		}
		opt := DefaultOptions()
		if rng.Intn(2) == 0 {
			opt.LeafCap, opt.Fanout = 4, 3
		}
		ps := NewPointSet(dim, coords)
		tr := NewCracking(ps, opt)
		for round := 0; round < 3; round++ {
			checkWalks(t, rng, ps, tr, seed)
			for c := rng.Intn(6); c > 0; c-- {
				tr.Crack(randomQuery(rng, dim, 0, 6))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func checkWalks(t *testing.T, rng *rand.Rand, ps *PointSet, tr *Tree, seed int) {
	t.Helper()
	q := make([]float64, ps.Dim)
	for d := range q {
		q[d] = float64(rng.Intn(13)) / 2 // on the lattice or midway between its points
	}
	fixed := float64(1 + rng.Intn(12))
	step := 0.25 + rng.Float64()
	bounds := map[string]func(int) float64{
		"fixed":     func(int) float64 { return fixed },
		"unbounded": func(int) float64 { return math.Inf(1) },
		"shrinking": func(v int) float64 { return 40 - step*float64(v) },
	}
	for name, bound := range bounds {
		want := walkOracle(ps, q, bound, -1)
		check := func(what string, got, want []walkPoint) {
			t.Helper()
			if !slices.Equal(got, want) {
				i := 0
				for i < len(got) && i < len(want) && got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d, %s bound, %s: %d visits, want %d; first difference at %d",
					seed, name, what, len(got), len(want), i)
			}
		}
		check("full walk", walkTree(tr, q, bound, -1, nil), want)

		stop := 1 + rng.Intn(20)
		check("early stop", walkTree(tr, q, bound, stop, nil), walkOracle(ps, q, bound, stop))
		check("walk after early stop", walkTree(tr, q, bound, -1, nil), want)

		var inner []walkPoint
		outer := walkTree(tr, q, bound, -1, func() { inner = walkTree(tr, q, bound, -1, nil) })
		check("walk around a nested walk", outer, want)
		if len(want) >= 3 {
			check("nested walk", inner, want)
		}
	}
	var got []walkPoint
	tr.WalkAscending(q, func(id int32, d float64) bool {
		got = append(got, walkPoint{d: d, id: id})
		return true
	})
	if !slices.Equal(got, walkOracle(ps, q, bounds["unbounded"], -1)) {
		t.Fatalf("seed %d: WalkAscending differs from the sorted scan", seed)
	}
}

// convergedTree builds an index over one clustered point set and cracks it
// around q until a further crack splits nothing.
func convergedTree(t *testing.T, q []float64, radius float64) *Tree {
	t.Helper()
	tr := NewCracking(clusteredPointSet(20000, 3, 16, 91), DefaultOptions())
	ball := BallRect(q, radius)
	for before := -1; before != tr.Splits(); {
		before = tr.Splits()
		tr.Crack(ball)
	}
	return tr
}

// TestWarmWalkAllocatesNothing guards the pooled frontier: once a walk has
// grown the scratch, the same walk again takes everything from the pool.
func TestWarmWalkAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	q := []float64{5, 5, 5}
	tr := convergedTree(t, q, 1)
	visited := 0
	bound := func() float64 { return 1 }
	visit := func(int32, float64) bool { visited++; return true }
	allocs := testing.AllocsPerRun(100, func() { tr.WalkWithin(q, bound, visit) })
	if visited == 0 {
		t.Fatal("the walk visited nothing; the guard measures an empty loop")
	}
	if allocs != 0 {
		t.Fatalf("warm WalkWithin allocates %v objects per walk, want 0", allocs)
	}
}

// TestReleasedFrontierHoldsNoNodes: arena records must not stay reachable
// from the pool after the caller drops the index read lock — neither from
// the live prefix of an early-stopped walk nor from slots popped earlier.
func TestReleasedFrontierHoldsNoNodes(t *testing.T) {
	q := []float64{5, 5, 5}
	tr := convergedTree(t, q, 1)
	for _, stop := range []int{1, 50, -1} {
		f := new(frontier)
		f.seed(tr, q, math.Inf(1))
		n := 0
		f.drain(tr.ps, q, func() float64 { return 4 }, func(int32, float64) bool { n++; return n != stop })
		if stop > 0 && len(f.items) == 0 {
			t.Fatalf("stop %d: nothing was left on the frontier to clear", stop)
		}
		f.release(nil)
		if len(f.items) != 0 || len(f.pts) != 0 || f.accIn+f.accLf+f.accPd != 0 {
			t.Fatalf("stop %d: released frontier not reset: %d items, %d points", stop, len(f.items), len(f.pts))
		}
		for i, it := range f.items[:cap(f.items)] {
			if it.n != nil {
				t.Fatalf("stop %d: released frontier still references a node in slot %d of %d", stop, i, cap(f.items))
			}
		}
	}
}

// TestOversizedFrontierIsNotPooled: the scratch of a cold walk over the
// largest pending root there is — one point short of a pre-split — is
// dropped, not parked in the pool.
func TestOversizedFrontierIsNotPooled(t *testing.T) {
	ps := clusteredPointSet(parallelSortMin-1, 3, 4, 92)
	tr := NewCracking(ps, DefaultOptions())
	f := new(frontier)
	f.seed(tr, []float64{5, 5, 5}, math.Inf(1))
	f.drain(ps, []float64{5, 5, 5}, func() float64 { return math.Inf(1) }, func(int32, float64) bool { return false })
	f.release(nil)
	if cap(f.pts) <= maxPooledPoints {
		t.Fatalf("cold walk grew the scratch to only %d points", cap(f.pts))
	}
	if len(f.pts) == 0 {
		t.Fatal("release reset (and pooled) a frontier past the pool cap")
	}
}
