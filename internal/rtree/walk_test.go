package rtree

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"vkgraph/internal/raceflag"
	"vkgraph/internal/rtree/points"
)

// walkOracle is the brute-force reference for a walk: every point sorted
// by (sqDist, id), cut where the walk's rule
// cuts it — before each point the bound is read (as a function of the
// points visited so far) and the walk ends at the first point beyond it,
// or after stop points.
func walkOracle(ps *PointSet, q []float64, bound func(visited int) float64, stop int) []points.Item {
	var all []points.Item
	for i := int32(0); int(i) < ps.N(); i++ {
		all = append(all, points.Item{D: ps.SqDistTo(i, q), Ref: i})
	}
	slices.SortFunc(all, func(a, b points.Item) int {
		return cmp.Or(cmp.Compare(a.D, b.D), cmp.Compare(a.Ref, b.Ref))
	})
	for i, p := range all {
		if i == stop || p.D > bound(i) {
			return all[:i]
		}
	}
	return all
}

// walkTree records the visit sequence of a walk under the same rule as
// walkOracle. inner, when non-nil, runs from inside the callback of
// the third visited point.
func walkTree(tr *Tree, q []float64, bound func(visited int) float64, stop int, inner func()) []points.Item {
	var got []points.Item
	tr.WalkWithin(q, func() float64 { return bound(len(got)) }, func(id int32, d float64) bool {
		got = append(got, points.Item{D: d, Ref: id})
		if inner != nil && len(got) == 3 {
			inner()
		}
		return len(got) != stop
	})
	return got
}

// TestWalkMatchesSortedScan is the randomized differential test of the
// radix frontier: over a random sequence of cracks and inserts, on trees
// below and above the size at which the root is pre-split, the visit
// sequence must equal the (sqDist, id)-sorted scan of the points under
// a fixed bound, no bound, and a bound that shrinks with the points
// visited; an early stop must leave the next walk on the goroutine intact,
// and so must a walk started from inside a visit callback.
//
// Coordinates sit on a coarse lattice, with exact duplicates, so equal
// distances — the id tie-break — occur in every run, and with near
// duplicates a few ulps apart, whose keys share all but their last bits.
// Each seed scales its coordinates by 2^s, s in [-60, 60], which moves the
// keys across binades without changing the order. Inserted points grow
// MBRs. Queries sit on the lattice, on a data point (distance +0) or on a
// face of an MBR.
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
		scale := math.Ldexp(1, rng.Intn(121)-60)
		// point makes point i, given the coordinates of the points before it.
		point := func(i int, at func(j int) []float64) []float64 {
			pt := make([]float64, dim)
			switch {
			case i > 0 && rng.Intn(8) == 0: // exact duplicate of an earlier point
				copy(pt, at(rng.Intn(i)))
			case i > 0 && rng.Intn(8) == 0: // an earlier point moved by a few ulps
				copy(pt, at(rng.Intn(i)))
				for d := range pt {
					for u := rng.Intn(4); u > 0; u-- {
						pt[d] = math.Nextafter(pt[d], math.Inf(1))
					}
				}
			case rng.Intn(4) == 0: // off-lattice
				for d := range pt {
					pt[d] = rng.Float64() * 6 * scale
				}
			default:
				for d := range pt {
					pt[d] = float64(rng.Intn(7)) * scale
				}
			}
			return pt
		}
		rows := make([]float64, 0, n*dim)
		for i := 0; i < n; i++ {
			rows = append(rows, point(i, func(j int) []float64 { return rows[j*dim : (j+1)*dim] })...)
		}
		opt := DefaultOptions()
		if rng.Intn(2) == 0 {
			opt.LeafCap, opt.Fanout = 4, 3
		}
		ps := NewPointSet(dim, rows)
		tr := NewCracking(ps, opt)
		for round := 0; round < 4; round++ {
			checkWalks(t, rng, ps, tr, scale, seed)
			for c := rng.Intn(6); c > 0; c-- {
				q := randomQuery(rng, dim, 0, 6)
				for d := range q.Lo {
					q.Lo[d] *= scale
					q.Hi[d] *= scale
				}
				tr.Crack(q)
			}
			if round == 0 {
				continue // the first cracks run on the points as built
			}
			for c := rng.Intn(20); c > 0; c-- {
				tr.Insert(ps.AppendPoint(point(ps.N(), func(j int) []float64 { return ps.At(int32(j)) })))
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func checkWalks(t *testing.T, rng *rand.Rand, ps *PointSet, tr *Tree, scale float64, seed int) {
	t.Helper()
	q := make([]float64, ps.Dim)
	for d := range q {
		q[d] = float64(rng.Intn(13)) / 2 * scale // on the lattice or midway between its points
	}
	switch rng.Intn(3) {
	case 0: // on a data point
		copy(q, ps.At(int32(rng.Intn(ps.N()))))
	case 1: // on a face of an MBR
		tr.ensureRoot()
		nd := tr.root
		for nd.isInternal() && rng.Intn(3) != 0 {
			nd = nd.children[rng.Intn(len(nd.children))]
		}
		if d := rng.Intn(ps.Dim); rng.Intn(2) == 0 {
			q[d] = nd.mbr.Lo[d]
		} else {
			q[d] = nd.mbr.Hi[d]
		}
	}
	fixed := float64(1+rng.Intn(12)) * scale * scale
	step := (0.25 + rng.Float64()) * scale * scale
	bounds := map[string]func(int) float64{
		"fixed":     func(int) float64 { return fixed },
		"unbounded": func(int) float64 { return math.Inf(1) },
		"shrinking": func(v int) float64 { return 40*scale*scale - step*float64(v) },
	}
	for name, bound := range bounds {
		want := walkOracle(ps, q, bound, -1)
		check := func(what string, got, want []points.Item) {
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

		var inner []points.Item
		outer := walkTree(tr, q, bound, -1, func() { inner = walkTree(tr, q, bound, -1, nil) })
		check("walk around a nested walk", outer, want)
		if len(want) >= 3 {
			check("nested walk", inner, want)
		}
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

// drainFrom runs one walk of tr on a frontier of the test's own, which it
// returns unreleased.
func drainFrom(tr *Tree, q []float64, bound float64, visit func(int32, float64) bool) *frontier {
	tr.ensureRoot()
	f := new(frontier)
	f.push(tr.root.mbr.MinSqDist(q), ^tr.root.idx)
	f.drain(tr, q, func() float64 { return bound }, visit)
	return f
}

// TestFrontierHoldsNoPointer: a pooled frontier outlives the index read
// lock, so nothing in it may reach an arena record. Its items name nodes by
// arena index, and each of its fields is pointer-free or a slice of
// pointer-free elements, which the garbage collector does not scan either.
func TestFrontierHoldsNoPointer(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch k := t.Kind(); {
		case k >= reflect.Bool && k <= reflect.Complex128 && k != reflect.Uintptr:
			return true
		case k == reflect.Array:
			return pointerFree(t.Elem())
		case k == reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if it := reflect.TypeFor[points.Item](); !pointerFree(it) {
		t.Fatalf("%v holds a pointer", it)
	}
	ft := reflect.TypeFor[frontier]()
	for i := 0; i < ft.NumField(); i++ {
		f := ft.Field(i)
		if !pointerFree(f.Type) && !(f.Type.Kind() == reflect.Slice && pointerFree(f.Type.Elem())) {
			t.Fatalf("frontier.%s (%v) can hold a pointer", f.Name, f.Type)
		}
	}
}

// TestReleasedFrontierIsEmpty: whether a walk ran out, hit its bound or
// stopped early with items still on the frontier, the frontier goes back to
// the pool empty, its access counts flushed.
func TestReleasedFrontierIsEmpty(t *testing.T) {
	q := []float64{5, 5, 5}
	tr := convergedTree(t, q, 1)
	for _, stop := range []int{1, 50, -1} {
		n := 0
		f := drainFrom(tr, q, 4, func(int32, float64) bool { n++; return n != stop })
		if stop > 0 && len(f.zero) == 0 && f.mask == 0 {
			t.Fatalf("stop %d: nothing was left on the frontier to clear", stop)
		}
		f.release(nil)
		if !reflect.DeepEqual(*f, frontier{items: f.items[:0], zero: f.zero[:0]}) {
			t.Fatalf("stop %d: released frontier not reset: %d items, %d in bucket 0, last %#x",
				stop, len(f.items), len(f.zero), f.last)
		}
	}
}

// TestOversizedFrontierIsNotPooled: the slab of a cold, unbounded walk over
// more points than the pool keeps is dropped, not parked in the pool.
func TestOversizedFrontierIsNotPooled(t *testing.T) {
	tr := NewCracking(clusteredPointSet(2*maxPooledItems, 3, 4, 92), DefaultOptions())
	f := drainFrom(tr, []float64{5, 5, 5}, math.Inf(1), func(int32, float64) bool { return true })
	f.release(nil)
	if cap(f.items) <= maxPooledItems {
		t.Fatalf("cold walk grew the slab to only %d items", cap(f.items))
	}
	if len(f.items) == 0 {
		t.Fatal("release reset (and pooled) a frontier past the pool cap")
	}
}
