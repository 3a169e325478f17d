package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/rtree"
	"vkgraph/internal/snapfmt"
)

// This file keeps the aggregate implementation that preceded the two-phase
// one as a test oracle: it walks once for d1, then enumerates, orders and
// stores every point of the ball, and derives every contour element's
// statistics from its points on every call. TestAggregateMatchesOracle
// holds the engine to its answers.

type oracleBallPoint struct {
	id kg.EntityID
	d2 float64 // S2 distance
	// Filled for accessed points only:
	d1   float64
	prob float64
	val  float64
	has  bool
}

// oracleElement describes one contour element overlapping a query ball.
type oracleElement struct {
	MaxDist float64 // distance from the ball center to the farthest MBR corner
	Attrs   []rtree.AttrStats
}

func oracleAttrStats(ps *rtree.PointSet, ai int, ids []int32) rtree.AttrStats {
	st := rtree.AttrStats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, id := range ids {
		v, ok := ps.AttrValue(ai, id)
		if !ok {
			continue
		}
		st.Count++
		st.Min = math.Min(st.Min, v)
		st.Max = math.Max(st.Max, v)
		st.MaxAbs = math.Max(st.MaxAbs, math.Abs(v))
	}
	return st
}

// oracleContourOverlap summarizes every contour element whose MBR
// intersects the bounding box of B(center, radius); the caller holds the
// engine read lock and the index read lock. The contour is read from the
// index's own saved form — a preorder of node kinds and entry counts and
// id lists — and each element's MBR is computed from its points, so the
// oracle shares no traversal with the engine.
func (e *Engine) oracleContourOverlap(center []float64, radius float64) []oracleElement {
	var blob bytes.Buffer
	if err := e.idx.tree.Save(&blob); err != nil {
		panic(err)
	}
	if _, err := snapfmt.ReadHeader(&blob, "VKGRTREE", 3); err != nil {
		panic(err)
	}
	_, payload, err := snapfmt.ReadSection(&blob)
	if err != nil {
		panic(err)
	}
	// leafCap, fanout, splits, queries, initial size; then the node count,
	// a kind byte and an entry count per node, and the id list.
	r := snapfmt.NewReader(payload)
	for i := 0; i < 5; i++ {
		r.I64()
	}
	var flat struct {
		Kinds  []uint8
		Counts []int32
		IDs    []int32
	}
	flat.Kinds = make([]uint8, r.Count(5))
	for i := range flat.Kinds {
		flat.Kinds[i] = r.U8()
	}
	flat.Counts = make([]int32, len(flat.Kinds))
	for i := range flat.Counts {
		flat.Counts[i] = r.I32()
	}
	flat.IDs = r.I32s()
	if err := r.Finish(); err != nil {
		panic(err)
	}
	q := rtree.BallRect(center, radius)
	var out []oracleElement
	at := 0
	for i, kind := range flat.Kinds {
		if kind == 0 {
			continue // internal
		}
		ids := flat.IDs[at : at+int(flat.Counts[i])]
		at += len(ids)
		mbr := e.ps.MBRof(ids)
		if !mbr.Overlaps(q) {
			continue
		}
		sum := oracleElement{MaxDist: math.Sqrt(mbr.MaxSqDist(center)), Attrs: make([]rtree.AttrStats, e.ps.NumAttrs())}
		for ai := range sum.Attrs {
			sum.Attrs[ai] = oracleAttrStats(e.ps, ai, ids)
		}
		out = append(out, sum)
	}
	return out
}

func (e *Engine) oracleAggregateQuery(dir Dir, ent kg.EntityID, rel kg.RelationID, q AggQuery, eps float64) (*AggResult, error) {
	e.prepareIndex()
	e.mu.RLock()
	pq, err := e.resolve(dir, ent, rel)
	if err != nil {
		e.mu.RUnlock()
		return nil, err
	}
	return e.oracleAggregate(pq.q1, q, pq.skips, eps)
}

func (e *Engine) oracleAggregate(q1 []float64, q AggQuery, skip func(kg.EntityID) bool, eps float64) (*AggResult, error) {
	attrIdx := -1
	if q.Kind != Count {
		if q.Attr == "" {
			e.mu.RUnlock()
			return nil, fmt.Errorf("core: aggregate needs an attribute: %w", ErrUnknownAttribute)
		}
		attrIdx = e.ps.AttrIndex(q.Attr)
		if attrIdx < 0 {
			e.mu.RUnlock()
			return nil, errAttr(q.Attr)
		}
	}
	pTau := q.PTau
	if pTau <= 0 {
		pTau = e.params.PTau
	}
	q2 := e.tf.Apply(q1)
	e.idx.mu.RLock()

	d1 := e.oracleNearestDist(q1, q2, skip)
	if math.IsInf(d1, 1) {
		e.idx.mu.RUnlock()
		e.mu.RUnlock()
		return &AggResult{}, nil
	}
	if d1 <= 0 {
		d1 = 1e-12
	}
	rTau := d1 / pTau
	r2 := rTau * (1 + eps)

	var ball []oracleBallPoint
	e.idx.tree.WalkWithin(q2, func() float64 { return r2 * r2 }, func(id int32, sqd float64) bool {
		eid := kg.EntityID(id)
		if skip(eid) {
			return true
		}
		if attrIdx >= 0 {
			if _, ok := e.ps.AttrValue(attrIdx, id); !ok {
				return true
			}
		}
		ball = append(ball, oracleBallPoint{id: eid, d2: math.Sqrt(sqd)})
		return true
	})

	b := len(ball)
	a := b
	if q.MaxAccess > 0 && q.MaxAccess < b {
		a = q.MaxAccess
	}
	for i := 0; i < a; i++ {
		p := &ball[i]
		p.d1 = e.s1Dist(q1, p.id)
		p.prob = clampProb(d1 / math.Max(p.d1, 1e-12))
		if q.Kind == Count {
			p.val, p.has = 1, true
		} else {
			p.val, p.has = e.ps.AttrValue(attrIdx, int32(p.id))
		}
	}
	cAlpha := jlInverseBias(e.params.Alpha)
	for i := a; i < b; i++ {
		p := &ball[i]
		if p.d2 > rTau {
			continue
		}
		p.prob = clampProb(d1 / math.Max(p.d2, 1e-12) / cAlpha)
	}

	vm := e.oracleTailMaxAbs(q2, r2, attrIdx, ball[:a], q.Kind)
	e.idx.mu.RUnlock()
	e.finishQuery(rtree.BallRect(q2, r2), true, nil)

	res := &AggResult{Accessed: a, BallSize: b, VM: vm}
	accessed := make([]ballPoint, 0, a)
	for i := 0; i < a; i++ {
		if ball[i].has {
			res.SumVi2 += ball[i].val * ball[i].val
			accessed = append(accessed, ballPoint{id: ball[i].id, prob: ball[i].prob, val: ball[i].val})
		}
	}

	switch q.Kind {
	case Count, Sum:
		res.Value = oracleEstimateSum(ball, a, b)
	case Avg:
		sum := oracleEstimateSum(ball, a, b)
		cnt := oracleEstimateCount(ball, a, b)
		if cnt > 0 {
			res.Value = sum / cnt
		}
	case Max:
		est, ok := estimateMax(accessed, false)
		e.mu.RLock()
		e.idx.mu.RLock()
		eb := e.oracleElementBound(q2, r2, attrIdx, false)
		e.idx.mu.RUnlock()
		e.mu.RUnlock()
		switch {
		case ok && !math.IsInf(eb, -1):
			res.Value = math.Max(est, eb)
		case ok:
			res.Value = est
		case !math.IsInf(eb, -1):
			res.Value = eb
		}
	case Min:
		est, ok := estimateMax(accessed, true)
		e.mu.RLock()
		e.idx.mu.RLock()
		eb := e.oracleElementBound(q2, r2, attrIdx, true)
		e.idx.mu.RUnlock()
		e.mu.RUnlock()
		switch {
		case ok && !math.IsInf(eb, 1):
			res.Value = math.Min(est, eb)
		case ok:
			res.Value = est
		case !math.IsInf(eb, 1):
			res.Value = eb
		}
	default:
		return nil, fmt.Errorf("core: unknown aggregate kind %v", q.Kind)
	}
	return res, nil
}

func (e *Engine) oracleElementBound(q2 []float64, radius float64, attrIdx int, isMin bool) float64 {
	best := math.Inf(-1)
	if isMin {
		best = math.Inf(1)
	}
	if attrIdx < 0 {
		return best
	}
	for _, s := range e.oracleContourOverlap(q2, radius) {
		if s.MaxDist > radius {
			continue // only partially inside; membership uncertain
		}
		st := s.Attrs[attrIdx]
		if st.Count == 0 {
			continue
		}
		if isMin {
			if st.Min < best {
				best = st.Min
			}
		} else if st.Max > best {
			best = st.Max
		}
	}
	return best
}

func (e *Engine) oracleNearestDist(q1, q2 []float64, skip func(kg.EntityID) bool) float64 {
	const probe = 8
	best := math.Inf(1)
	seen := 0
	e.idx.tree.WalkWithin(q2, func() float64 { return math.Inf(1) },
		func(id int32, _ float64) bool {
			eid := kg.EntityID(id)
			if skip(eid) {
				return true
			}
			if d := e.s1Dist(q1, eid); d < best {
				best = d
			}
			seen++
			return seen < probe
		})
	return best
}

func (e *Engine) oracleTailMaxAbs(q2 []float64, r2 float64, attrIdx int, accessed []oracleBallPoint, kind AggKind) float64 {
	if kind == Count {
		return 1
	}
	vm := 0.0
	for _, s := range e.oracleContourOverlap(q2, r2) {
		if attrIdx < len(s.Attrs) && s.Attrs[attrIdx].Count > 0 {
			if s.Attrs[attrIdx].MaxAbs > vm {
				vm = s.Attrs[attrIdx].MaxAbs
			}
		}
	}
	if vm == 0 {
		for _, p := range accessed {
			if p.has && math.Abs(p.val) > vm {
				vm = math.Abs(p.val)
			}
		}
	}
	return vm
}

func oracleEstimateSum(ball []oracleBallPoint, a, b int) float64 {
	var num, pa, pb float64
	for i := 0; i < a; i++ {
		if ball[i].has {
			num += ball[i].val * ball[i].prob
		}
		pa += ball[i].prob
	}
	pb = pa
	for i := a; i < b; i++ {
		pb += ball[i].prob
	}
	if pa <= 0 {
		return 0
	}
	return num / (pa / pb)
}

func oracleEstimateCount(ball []oracleBallPoint, a, b int) float64 {
	var pa, pb float64
	cnt := 0.0
	for i := 0; i < a; i++ {
		if ball[i].has {
			cnt += ball[i].prob
		}
		pa += ball[i].prob
	}
	pb = pa
	for i := a; i < b; i++ {
		pb += ball[i].prob
	}
	if pa <= 0 {
		return 0
	}
	return cnt / (pa / pb)
}

// aggTwins is a pair of engines in the same state: got answers with the
// engine's aggregate, want with the oracle, and everything else is applied
// to both. Their cracks follow the query regions, which the two compute
// alike, so the indexes stay equal too.
type aggTwins struct {
	t         *testing.T
	got, want *Engine
	cases     int
}

var aggKinds = []AggKind{Count, Sum, Avg, Max, Min}

// compare asks both engines one aggregate and holds the answers together:
// the counts and bound parameters equal, MAX/MIN bit-equal, the sums —
// whose tail the engine adds up in scan order, not distance order — to
// 1e-9.
func (tw *aggTwins) compare(what string, dir Dir, ent kg.EntityID, rel kg.RelationID, q AggQuery) *AggResult {
	tw.t.Helper()
	tw.cases++
	got, gerr := tw.got.aggregateQuery(context.Background(), dir, ent, rel, q, tw.got.params.Eps, nil)
	want, werr := tw.want.oracleAggregateQuery(dir, ent, rel, q, tw.want.params.Eps)
	desc := fmt.Sprintf("%s: %v(%q) dir=%d ent=%d a=%d ptau=%g", what, q.Kind, q.Attr, dir, ent, q.MaxAccess, q.PTau)
	if (gerr == nil) != (werr == nil) {
		tw.t.Fatalf("%s: error %v, oracle %v", desc, gerr, werr)
	}
	if gerr != nil {
		return nil
	}
	if got.Accessed != want.Accessed || got.BallSize != want.BallSize || got.SumVi2 != want.SumVi2 || got.VM != want.VM {
		tw.t.Fatalf("%s:\n got    %+v\n oracle %+v", desc, *got, *want)
	}
	tol := 0.0
	if q.Kind == Count || q.Kind == Sum || q.Kind == Avg {
		tol = 1e-9 * math.Abs(want.Value)
	}
	if math.Abs(got.Value-want.Value) > tol {
		tw.t.Fatalf("%s: value %v, oracle %v (off by %g)", desc, got.Value, want.Value, got.Value-want.Value)
	}
	return got
}

// mutate applies one update (or a query that only cracks) to both engines.
func (tw *aggTwins) mutate(fn func(e *Engine) error) {
	tw.t.Helper()
	for _, e := range []*Engine{tw.got, tw.want} {
		if err := fn(e); err != nil {
			tw.t.Fatal(err)
		}
	}
}

func (tw *aggTwins) finish(what string) {
	tw.t.Helper()
	if g, w := tw.got.StructureHash(), tw.want.StructureHash(); g != w {
		tw.t.Fatalf("%s: the twins' indexes diverged: %x, oracle %x", what, g, w)
	}
	if err := tw.got.CheckInvariants(); err != nil {
		tw.t.Fatalf("%s: %v", what, err)
	}
}

func aggAttr(k AggKind, attr string) string {
	if k == Count {
		return ""
	}
	return attr
}

// TestAggregateMatchesOracle is the differential test of the two-phase
// aggregate against the implementation it replaced, over kind x MaxAccess x
// direction x graph size x index state (the cold first query, a workload
// of mixed queries interleaved with InsertEntity, SetAttr and AddFact, and
// a bulk-loaded tree), with small leaves so that balls hold whole elements.
func TestAggregateMatchesOracle(t *testing.T) {
	type config struct {
		name  string
		mode  IndexMode
		graph kggen.MovieConfig
		leaf  int
	}
	small := kggen.TinyMovieConfig()
	configs := []config{
		{"crack", Crack, small, 0},
		{"crack/small leaves", Crack, small, 8},
		{"crack/pre-split root", Crack, bigMovieConfig(), 4},
		{"bulk", Bulk, small, 8},
	}
	params := func(c config) Params {
		p := defaultTestParams()

		if c.leaf > 0 {
			p.Index.LeafCap, p.Index.Fanout = c.leaf, 3
		}
		return p
	}
	total := 0

	// Cold: every case is the first query of a fresh pair of engines. They
	// are never updated, so they can all share one graph and model.
	rng := rand.New(rand.NewSource(1))
	var g *kg.Graph
	var m *embedding.Model
	for ci, c := range configs[:3] {
		if ci != 1 { // the first two share a graph
			g, m = trainMovie(t, c.graph)
		}
		likes, _ := g.RelationByName("likes")
		users, movies := g.EntitiesOfType("user"), g.EntitiesOfType("movie")
		for _, kind := range aggKinds {
			for _, a := range []int{0, 5, 50} {
				for _, dir := range []Dir{DirTail, DirHead} {
					tw := &aggTwins{t: t}
					for _, e := range []**Engine{&tw.got, &tw.want} {
						var err error
						if *e, err = NewEngine(g, m, c.mode, params(c)); err != nil {
							t.Fatal(err)
						}
					}
					ent, attr := users[rng.Intn(len(users))], "year"
					if dir == DirHead {
						ent, attr = movies[rng.Intn(len(movies))], "age"
					}
					tw.compare(c.name+", cold", dir, ent, likes, AggQuery{Kind: kind, Attr: aggAttr(kind, attr), MaxAccess: a})
					tw.finish(c.name + ", cold")
					total += tw.cases
				}
			}
		}
	}

	// Warm: one pair per configuration lives through a workload.
	for ci, c := range configs {
		tw := &aggTwins{t: t}
		tw.got, g = movieEngine(t, c.graph, c.mode, params(c))
		tw.want, _ = movieEngine(t, c.graph, c.mode, params(c))
		likes, _ := g.RelationByName("likes")
		rng := rand.New(rand.NewSource(int64(ci) + 2))
		users, movies := g.EntitiesOfType("user"), g.EntitiesOfType("movie")
		pick := func(dir Dir) (kg.EntityID, string) {
			if dir == DirHead {
				return movies[rng.Intn(len(movies))], "age"
			}
			return users[rng.Intn(len(users))], "year"
		}
		// Up to 1, where the ball is so small that probed points lie outside.
		ptaus := []float64{0, 0, 0.3, 0.8, 1}
		// The oracle sorts every point for each answer: on the large graph
		// a shorter workload, a capped sweep and no all-movies fan below.
		big := c.graph != small
		steps := 200
		if big {
			steps = 60
		}
		for step := 0; step < steps; step++ {
			dir := Dir(rng.Intn(2))
			ent, attr := pick(dir)
			switch {
			case step%25 == 24: // a new movie near two users, with a year
				u1, u2 := users[rng.Intn(len(users))], users[rng.Intn(len(users))]
				name, year := fmt.Sprintf("late-movie-%d", step), float64(1900+rng.Intn(3))
				tw.mutate(func(e *Engine) error {
					_, err := e.InsertEntity(name, "movie", []Fact{{Rel: likes, Other: u1}, {Rel: likes, Other: u2}},
						map[string]float64{"year": year})
					return err
				})
			case step%25 == 12: // a value far above (or below) anything cached
				mv, v := movies[rng.Intn(len(movies))], float64(rng.Intn(5000)-1000)
				tw.mutate(func(e *Engine) error { return e.SetAttr("year", mv, v) })
			case step%25 == 6:
				u, mv := users[rng.Intn(len(users))], movies[rng.Intn(len(movies))]
				tw.mutate(func(e *Engine) error { return e.AddFact(u, likes, mv) })
			case step%3 == 0:
				u := users[rng.Intn(len(users))]
				tw.mutate(func(e *Engine) error {
					_, err := e.TopK(DirTail, u, likes, 5)
					return err
				})
			default:
				kind := aggKinds[rng.Intn(len(aggKinds))]
				tw.compare(c.name+", workload", dir, ent, likes, AggQuery{Kind: kind, Attr: aggAttr(kind, attr),
					MaxAccess: []int{0, 5, 50}[rng.Intn(3)], PTau: ptaus[rng.Intn(len(ptaus))]})
			}
		}
		grid := func(what string, dir Dir, ent kg.EntityID, attr string) {
			t.Helper()
			for _, kind := range aggKinds {
				for _, a := range []int{0, 5, 50} {
					tw.compare(c.name+", "+what, dir, ent, likes, AggQuery{Kind: kind, Attr: aggAttr(kind, attr), MaxAccess: a, PTau: ptaus[rng.Intn(len(ptaus))]})
				}
			}
		}
		for i := 0; i < 3; i++ {
			for _, dir := range []Dir{DirTail, DirHead} {
				ent, attr := pick(dir)
				grid("converged", dir, ent, attr)
			}
		}

		// Six movies at one point (the same facts give the same vector): as
		// MaxAccess sweeps the ball, the cut between accessed and unaccessed
		// falls among points at equal distance, where the id decides.
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("clone-%d", i)
			tw.mutate(func(e *Engine) error {
				_, err := e.InsertEntity(name, "movie", []Fact{{Rel: likes, Other: users[3]}, {Rel: likes, Other: users[4]}},
					map[string]float64{"year": 1950})
				return err
			})
		}
		for a, b := 1, 2; a < b && (!big || a <= 40); a++ {
			b = tw.compare(c.name+", sweep", DirTail, users[5], likes, AggQuery{Kind: Sum, Attr: "year", MaxAccess: a}).BallSize
		}

		// An attribute registered after the build, borne by one far entity:
		// element statistics cached before it existed must be rebuilt, and
		// most balls hold no eligible point at all.
		tw.mutate(func(e *Engine) error { return e.SetAttr("late", users[0], 7) })
		grid("late attribute, empty ball", DirTail, users[1], "late")
		grid("late attribute", DirHead, movies[0], "late")

		if big {
			tw.finish(c.name)
			total += tw.cases
			continue
		}

		// A long known-edge list: a user who likes every other movie, then
		// every movie — the ball still has points (users, tags), but every
		// eligible one is skipped.
		fan := users[2]
		for i, mv := range movies {
			if i%2 == 0 {
				tw.mutate(func(e *Engine) error { return e.AddFact(fan, likes, mv) })
			}
		}
		grid("long known-edge list", DirTail, fan, "year")
		for _, mv := range g.EntitiesOfType("movie") {
			tw.mutate(func(e *Engine) error { return e.AddFact(fan, likes, mv) })
		}
		if res := tw.compare(c.name+", all skipped", DirTail, fan, likes, AggQuery{Kind: Count, MaxAccess: 5}); res.BallSize == 0 {
			t.Fatalf("%s: COUNT ball of the fan is empty; it should still hold the non-movies", c.name)
		}
		grid("all-skipped ball", DirTail, fan, "year")
		if res := tw.compare(c.name+", all skipped", DirTail, fan, likes, AggQuery{Kind: Avg, Attr: "year"}); res.BallSize != 0 {
			t.Fatalf("%s: ball of a user who likes every movie holds %d movies", c.name, res.BallSize)
		}
		tw.finish(c.name)
		total += tw.cases
	}

	// Fewer candidates than the nearest probe asks for: the walk ends before
	// the ball is fixed. A six-entity graph with a made-up model; with no
	// expansion and PTau = 1 the ball ends at d1, short of some probed points.
	tiny := kg.NewGraph()
	rel := tiny.AddRelation("r")
	for i := 0; i < 6; i++ {
		id := tiny.AddEntity(fmt.Sprintf("e%d", i), "thing")
		if i%2 == 0 {
			tiny.SetAttr("w", id, float64(10*i-20))
		}
	}
	tiny.MustAddTriple(0, rel, 1)
	tiny.MustAddTriple(0, rel, 2)
	tiny.MustAddTriple(3, rel, 4)
	rng = rand.New(rand.NewSource(3))
	tm := &embedding.Model{Dim: 8, NormUsed: embedding.L2, Entities: make([]float64, 6*8), Rels: make([]float64, 8)}
	for i := range tm.Entities {
		tm.Entities[i] = rng.NormFloat64()
	}
	tw := &aggTwins{t: t}
	for _, e := range []**Engine{&tw.got, &tw.want} {
		p := DefaultParams()
		p.Attrs, p.Eps = []string{"w"}, 0
		var err error
		if *e, err = NewEngine(tiny, tm, Crack, p); err != nil {
			t.Fatal(err)
		}
	}
	for ent := kg.EntityID(0); ent < 6; ent++ {
		for _, kind := range aggKinds {
			for _, dir := range []Dir{DirTail, DirHead} {
				tw.compare("six entities", dir, ent, rel, AggQuery{Kind: kind, Attr: aggAttr(kind, "w"), MaxAccess: 2 * int(ent%2), PTau: []float64{0.2, 1}[ent/3]})
			}
		}
	}
	tw.finish("six entities")
	total += tw.cases

	if total < 200 {
		t.Fatalf("only %d cases compared", total)
	}
	t.Logf("%d cases compared", total)
}
