package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/rtree"
)

// testEngine builds a small end-to-end engine over the tiny Movie graph.
func testEngine(t *testing.T, mode IndexMode, p Params) (*Engine, *kg.Graph) {
	t.Helper()
	return movieEngine(t, kggen.TinyMovieConfig(), mode, p)
}

// bigMovieConfig is a Movie graph of 8,510 entities: past the 8,192 points
// from which the index root is pre-split and its sort orders built in
// parallel.
func bigMovieConfig() kggen.MovieConfig {
	return kggen.MovieConfig{
		Users: 3000, Movies: 5400, Genres: 10, Tags: 100,
		Ratings: 40000, MicroSize: 12, Prefs: 2, Affinity: 0.85, Seed: 7,
	}
}

// trainedMovies holds, per configuration, the saved bytes of a generated
// Movie graph and its trained embedding: generation and training are
// deterministic, so every caller can have a copy of its own — engines grow
// both — for the price of a decode.
var trainedMovies sync.Map // kggen.MovieConfig -> [2][]byte

// trainMovie returns a fresh copy of the Movie graph of cfg and of the
// embedding trained on it.
func trainMovie(t *testing.T, cfg kggen.MovieConfig) (*kg.Graph, *embedding.Model) {
	t.Helper()
	saved, ok := trainedMovies.Load(cfg)
	if !ok {
		g := kggen.Movie(cfg)
		tc := embedding.DefaultConfig()
		tc.Epochs = 12
		tr, err := embedding.Train(g, tc)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		var gb, mb bytes.Buffer
		if err := g.Save(&gb); err != nil {
			t.Fatal(err)
		}
		if err := tr.Model.Save(&mb); err != nil {
			t.Fatal(err)
		}
		saved, _ = trainedMovies.LoadOrStore(cfg, [2][]byte{gb.Bytes(), mb.Bytes()})
	}
	b := saved.([2][]byte)
	g, err := kg.Load(bytes.NewReader(b[0]))
	if err != nil {
		t.Fatal(err)
	}
	m, err := embedding.Load(bytes.NewReader(b[1]))
	if err != nil {
		t.Fatal(err)
	}
	return g, m
}

func movieEngine(t *testing.T, cfg kggen.MovieConfig, mode IndexMode, p Params) (*Engine, *kg.Graph) {
	t.Helper()
	g, m := trainMovie(t, cfg)
	eng, err := NewEngine(g, m, mode, p)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return eng, g
}

// TestNewEngineUnknownAttribute: an index built over an attribute the graph
// does not have is refused with ErrUnknownAttribute.
func TestNewEngineUnknownAttribute(t *testing.T) {
	g, m := trainMovie(t, kggen.TinyMovieConfig())
	p := DefaultParams()
	p.Attrs = []string{"year", "no-such-attr"}
	if _, err := NewEngine(g, m, Crack, p); !errors.Is(err, ErrUnknownAttribute) {
		t.Fatalf("got %v, want ErrUnknownAttribute", err)
	}
}

func defaultTestParams() Params {
	p := DefaultParams()
	p.Attrs = []string{"year", "age", "popularity"}
	return p
}

func precisionAtK(got, want []Prediction) float64 {
	if len(want) == 0 {
		return 1
	}
	w := make(map[kg.EntityID]bool, len(want))
	for _, p := range want {
		w[p.Entity] = true
	}
	hit := 0
	for _, p := range got {
		if w[p.Entity] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}

func TestTopKTailsPrecision(t *testing.T) {
	for _, mode := range []IndexMode{Crack, Bulk} {
		eng, g := testEngine(t, mode, defaultTestParams())
		likes, _ := g.RelationByName("likes")
		users := g.EntitiesOfType("user")

		var total float64
		n := 0
		for _, u := range users[:30] {
			got, err := eng.TopK(DirTail, u, likes, 10)
			if err != nil {
				t.Fatalf("TopK: %v", err)
			}
			want, err := eng.TopKNoIndex(DirTail, u, likes, 10)
			if err != nil {
				t.Fatalf("TopKNoIndex: %v", err)
			}
			total += precisionAtK(got.Predictions, want.Predictions)
			n++
			if got.RecallBound < 0 || got.RecallBound > 1 {
				t.Fatalf("RecallBound %v outside [0,1]", got.RecallBound)
			}
		}
		if avg := total / float64(n); avg < 0.9 {
			t.Fatalf("mode %d: precision@10 = %.3f, want >= 0.9", mode, avg)
		}
		if err := eng.CheckInvariants(); err != nil {
			t.Fatalf("index invariants after queries: %v", err)
		}
	}
}

func TestTopKHeadsPrecision(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	movies := g.EntitiesOfType("movie")
	var total float64
	n := 0
	for _, m := range movies[:20] {
		got, err := eng.TopK(DirHead, m, likes, 10)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		want, err := eng.TopKNoIndex(DirHead, m, likes, 10)
		if err != nil {
			t.Fatalf("TopKNoIndex: %v", err)
		}
		total += precisionAtK(got.Predictions, want.Predictions)
		n++
	}
	if avg := total / float64(n); avg < 0.9 {
		t.Fatalf("precision@10 = %.3f, want >= 0.9", avg)
	}
}

func TestTopKExcludesKnownEdges(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	for _, u := range users[:20] {
		res, err := eng.TopK(DirTail, u, likes, 10)
		if err != nil {
			t.Fatalf("TopK: %v", err)
		}
		for _, p := range res.Predictions {
			if g.HasEdge(u, likes, p.Entity) {
				t.Fatalf("prediction (%d, likes, %d) is already a known edge", u, p.Entity)
			}
			if p.Entity == u {
				t.Fatalf("query entity returned as its own prediction")
			}
		}
	}
}

func TestTopKProbabilities(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	res, err := eng.TopK(DirTail, g.EntitiesOfType("user")[0], likes, 10)
	if err != nil {
		t.Fatalf("TopK: %v", err)
	}
	if len(res.Predictions) == 0 {
		t.Fatal("no predictions")
	}
	if res.Predictions[0].Prob != 1 {
		t.Fatalf("closest prediction has prob %v, want 1", res.Predictions[0].Prob)
	}
	for i := 1; i < len(res.Predictions); i++ {
		prev, cur := res.Predictions[i-1], res.Predictions[i]
		if cur.Dist < prev.Dist {
			t.Fatalf("predictions not distance-sorted at %d", i)
		}
		if cur.Prob > prev.Prob+1e-12 {
			t.Fatalf("probabilities not non-increasing at %d", i)
		}
		if cur.Prob < 0 || cur.Prob > 1 {
			t.Fatalf("prob %v outside [0,1]", cur.Prob)
		}
	}
}

func TestAggregateCountAccuracy(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	for _, u := range users[:10] {
		full, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Count})
		if err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		if full.BallSize < full.Accessed {
			t.Fatalf("b=%d < a=%d", full.BallSize, full.Accessed)
		}
		if full.Value < 0 {
			t.Fatalf("negative count %v", full.Value)
		}
	}
}

func TestAggregateFullAccessMatchesExact(t *testing.T) {
	// When every ball point is accessed with a generous epsilon, the
	// indexed estimate should be close to the exact (S1 scan) answer.
	p := defaultTestParams()
	p.Eps = 1.0 // wide guard so the S2 ball contains the S1 ball's points
	eng, g := testEngine(t, Crack, p)
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	var relErrSum float64
	n := 0
	for _, u := range users[:10] {
		got, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year"})
		if err != nil {
			t.Fatalf("Aggregate: %v", err)
		}
		want, err := eng.AggregateExact(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year"})
		if err != nil {
			t.Fatalf("AggregateExact: %v", err)
		}
		if want.Value == 0 {
			continue
		}
		relErrSum += math.Abs(got.Value-want.Value) / math.Abs(want.Value)
		n++
	}
	if n == 0 {
		t.Fatal("no usable queries")
	}
	if avg := relErrSum / float64(n); avg > 0.05 {
		t.Fatalf("mean relative error %.4f, want <= 0.05", avg)
	}
}

func TestAggregateSampledConvergesToFull(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[1]
	full, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year"})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	if full.BallSize < 20 {
		t.Skipf("ball too small (%d) for a sampling comparison", full.BallSize)
	}
	small, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year", MaxAccess: 5})
	if err != nil {
		t.Fatalf("small: %v", err)
	}
	big, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Avg, Attr: "year", MaxAccess: full.BallSize - 1})
	if err != nil {
		t.Fatalf("big: %v", err)
	}
	errSmall := math.Abs(small.Value - full.Value)
	errBig := math.Abs(big.Value - full.Value)
	if errBig > errSmall+1e-9 && errBig/math.Abs(full.Value) > 0.02 {
		t.Fatalf("larger sample is much worse: err(a=5)=%v err(a=b-1)=%v", errSmall, errBig)
	}
	if small.Accessed != 5 {
		t.Fatalf("Accessed = %d, want 5", small.Accessed)
	}
}

func TestAggregateMaxMin(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[2]
	maxRes, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Max, Attr: "year"})
	if err != nil {
		t.Fatalf("Max: %v", err)
	}
	minRes, err := eng.Aggregate(DirTail, u, likes, AggQuery{Kind: Min, Attr: "year"})
	if err != nil {
		t.Fatalf("Min: %v", err)
	}
	if maxRes.Value < minRes.Value {
		t.Fatalf("MAX %v < MIN %v", maxRes.Value, minRes.Value)
	}
	if maxRes.Value < 1900 || maxRes.Value > 2100 {
		t.Fatalf("MAX year %v implausible", maxRes.Value)
	}
}

func TestTheorem4BoundBehaviour(t *testing.T) {
	r := AggResult{Value: 100, Accessed: 50, BallSize: 100, SumVi2: 500, VM: 2}
	p1 := r.ErrorProbability(0.1)
	p2 := r.ErrorProbability(0.5)
	if p2 > p1 {
		t.Fatalf("bound not monotone in delta: %v then %v", p1, p2)
	}
	if p1 < 0 || p1 > 1 {
		t.Fatalf("bound %v outside [0,1]", p1)
	}
	rad := r.ConfidenceRadius(0.95)
	if got := r.ErrorProbability(rad); got > 0.0500001 {
		t.Fatalf("ErrorProbability(ConfidenceRadius(0.95)) = %v, want <= 0.05", got)
	}
	exact := AggResult{Value: 10, Accessed: 5, BallSize: 5, SumVi2: 0, VM: 0}
	if got := exact.ErrorProbability(0.01); got != 0 {
		t.Fatalf("exact result has error probability %v, want 0", got)
	}
}

func TestEngineValidation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	if _, err := eng.TopK(DirTail, -1, likes, 5); err == nil {
		t.Fatal("negative entity accepted")
	}
	if _, err := eng.TopK(DirTail, kg.EntityID(g.NumEntities()), likes, 5); err == nil {
		t.Fatal("out-of-range entity accepted")
	}
	if _, err := eng.TopK(DirTail, 0, kg.RelationID(99), 5); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
	if _, err := eng.Aggregate(DirTail, 0, likes, AggQuery{Kind: Sum}); err == nil {
		t.Fatal("SUM without attribute accepted")
	}
	if _, err := eng.Aggregate(DirTail, 0, likes, AggQuery{Kind: Sum, Attr: "nope"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	res, err := eng.TopK(DirTail, 0, likes, 0)
	if err != nil || len(res.Predictions) != 0 {
		t.Fatalf("k=0 should return empty: %v, %v", res, err)
	}
}

// TestExactPathsStayOffTheIndex pins the split between resolve and
// beginQuery: the exact scans validate and answer without building the
// lazy root, and count in none of the indexed query metrics, not even when
// they fail.
func TestExactPathsStayOffTheIndex(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]
	m := g.EntitiesOfType("movie")[0]
	for _, c := range []struct {
		dir Dir
		ent kg.EntityID
	}{{DirTail, u}, {DirHead, m}} {
		res, err := eng.TopKNoIndex(c.dir, c.ent, likes, 5)
		if err != nil || len(res.Predictions) == 0 {
			t.Fatalf("TopKNoIndex(%d): %v, %v", c.dir, res, err)
		}
		if _, err := eng.AggregateExact(c.dir, c.ent, likes, AggQuery{Kind: Count}); err != nil {
			t.Fatalf("AggregateExact(%d): %v", c.dir, err)
		}
		for _, req := range []Request{
			{Kind: KindTopK, Dir: c.dir, Entity: c.ent, Rel: likes, K: 5, NoIndex: true},
			{Kind: KindAggregate, Dir: c.dir, Entity: c.ent, Rel: likes, Agg: AggQuery{Kind: Avg, Attr: "year"}, NoIndex: true},
		} {
			if resp := eng.Do(context.Background(), req); resp.Err != nil {
				t.Fatalf("Do(%+v): %v", req, resp.Err)
			}
		}
	}
	bad := Request{Kind: KindTopK, Entity: kg.EntityID(g.NumEntities()), Rel: likes, K: 5, NoIndex: true}
	if resp := eng.Do(context.Background(), bad); !errors.Is(resp.Err, ErrUnknownEntity) {
		t.Fatalf("Do with an unknown entity: %v, want ErrUnknownEntity", resp.Err)
	}
	if eng.Tree().Ready() {
		t.Fatal("an exact scan built the index root")
	}
	if m := eng.Metrics(); m.TopKQueries != 0 || m.AggregateQueries != 0 || m.QueryErrors != 0 {
		t.Fatalf("exact scans counted as indexed queries: topk %d, aggregate %d, errors %d",
			m.TopKQueries, m.AggregateQueries, m.QueryErrors)
	}
}

func TestNewEngineValidation(t *testing.T) {
	g := kggen.Movie(kggen.TinyMovieConfig())
	cfg := embedding.DefaultConfig()
	cfg.Epochs = 1
	tr, err := embedding.Train(g, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if _, err := NewEngine(nil, tr.Model, Crack, DefaultParams()); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewEngine(g, nil, Crack, DefaultParams()); err == nil {
		t.Fatal("nil model accepted")
	}
	p := DefaultParams()
	p.Alpha = 0
	if _, err := NewEngine(g, tr.Model, Crack, p); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	p = DefaultParams()
	p.Attrs = []string{"missing"}
	if _, err := NewEngine(g, tr.Model, Crack, p); err == nil {
		t.Fatal("unknown attribute accepted")
	}
	_ = rtree.DefaultOptions()
}
