package vkg

import (
	"fmt"
	"math/rand"
	"testing"

	"vkgraph/internal/kg/kggen"
)

// buildTestGraph builds a small restaurant-style graph (the paper's
// Figure 1 scenario) with learnable structure.
func buildTestGraph(t *testing.T) (*Graph, RelationID, RelationID) {
	t.Helper()
	g := NewGraph()
	ratesHigh := g.AddRelation("rates-high")
	frequents := g.AddRelation("frequents")

	rng := rand.New(rand.NewSource(1))
	const styles = 4
	var restaurants, groceries []EntityID
	for i := 0; i < 60; i++ {
		restaurants = append(restaurants, g.AddEntity(fmt.Sprintf("restaurant%d", i), "restaurant"))
	}
	for i := 0; i < 12; i++ {
		groceries = append(groceries, g.AddEntity(fmt.Sprintf("grocery%d", i), "grocery"))
	}
	for i := 0; i < 80; i++ {
		u := g.AddEntity(fmt.Sprintf("user%d", i), "user")
		g.SetAttr("age", u, float64(20+rng.Intn(40)))
		style := i % styles
		for j := 0; j < 6; j++ {
			ri := (style + j*styles) % len(restaurants)
			if err := g.AddTriple(u, ratesHigh, restaurants[ri]); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.AddTriple(u, frequents, groceries[style%len(groceries)]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ratesHigh, frequents
}

func fastOpts(extra ...Option) []Option {
	opts := []Option{
		WithSeed(42),
		WithEmbedding(EmbeddingParams{Dim: 16, Epochs: 15}),
		WithAttributes("age"),
	}
	return append(opts, extra...)
}

func TestBuildAndTopK(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	amy, _ := g.EntityByName("user0")
	res, err := v.TopKTails(amy, ratesHigh, 5)
	if err != nil {
		t.Fatalf("TopKTails: %v", err)
	}
	if len(res.Predictions) != 5 {
		t.Fatalf("got %d predictions", len(res.Predictions))
	}
	for _, p := range res.Predictions {
		if g.HasEdge(amy, ratesHigh, p.Entity) {
			t.Fatalf("predicted a known edge to %s", p.Name)
		}
		if p.Name == "" {
			t.Fatal("prediction missing name")
		}
		if p.Prob < 0 || p.Prob > 1 {
			t.Fatalf("probability %v out of range", p.Prob)
		}
	}
	if res.RecallBound < 0 || res.RecallBound > 1 {
		t.Fatalf("recall bound %v", res.RecallBound)
	}
	if len(v.TrainingLosses()) != 15 {
		t.Fatalf("got %d training losses", len(v.TrainingLosses()))
	}
}

func TestAllIndexModesAgree(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	truth, err := Build(g, fastOpts(WithIndexMode(ModeNoIndex))...)
	if err != nil {
		t.Fatalf("Build noindex: %v", err)
	}
	amy, _ := g.EntityByName("user3")
	want, err := truth.TopKTails(amy, ratesHigh, 5)
	if err != nil {
		t.Fatal(err)
	}
	wantSet := map[EntityID]bool{}
	for _, p := range want.Predictions {
		wantSet[p.Entity] = true
	}

	for _, mode := range []IndexMode{ModeCrack, ModeBulk} {
		v, err := Build(g, fastOpts(WithIndexMode(mode))...)
		if err != nil {
			t.Fatalf("Build mode %d: %v", mode, err)
		}
		got, err := v.TopKTails(amy, ratesHigh, 5)
		if err != nil {
			t.Fatalf("TopKTails mode %d: %v", mode, err)
		}
		hits := 0
		for _, p := range got.Predictions {
			if wantSet[p.Entity] {
				hits++
			}
		}
		if hits < 4 {
			t.Fatalf("mode %d agrees on only %d of 5 predictions", mode, hits)
		}
	}
}

func TestTopKHeads(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := g.EntityByName("restaurant0")
	res, err := v.TopKHeads(r0, ratesHigh, 5)
	if err != nil {
		t.Fatalf("TopKHeads: %v", err)
	}
	for _, p := range res.Predictions {
		if g.HasEdge(p.Entity, ratesHigh, r0) {
			t.Fatalf("predicted known head %s", p.Name)
		}
	}
}

func TestAggregates(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := g.EntityByName("restaurant1")

	// Q2 of the paper: average age of people who would like restaurant1.
	agg, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: Avg, Attr: "age"})
	if err != nil {
		t.Fatalf("AggregateHeads: %v", err)
	}
	if agg.Value < 20 || agg.Value > 60 {
		t.Fatalf("average age %v outside the generated range", agg.Value)
	}
	if agg.BallSize < agg.Accessed {
		t.Fatalf("b=%d < a=%d", agg.BallSize, agg.Accessed)
	}
	if agg.ErrorProbability(10) > agg.ErrorProbability(0.001) {
		t.Fatal("error probability not monotone")
	}

	cnt, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: Count})
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	if cnt.Value < 0 {
		t.Fatalf("negative count %v", cnt.Value)
	}

	mx, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: Max, Attr: "age", MaxAccess: 10})
	if err != nil {
		t.Fatalf("Max: %v", err)
	}
	mn, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: Min, Attr: "age", MaxAccess: 10})
	if err != nil {
		t.Fatalf("Min: %v", err)
	}
	if mx.Value < mn.Value {
		t.Fatalf("MAX %v < MIN %v", mx.Value, mn.Value)
	}

	if _, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: AggKind(99)}); err == nil {
		t.Fatal("unknown aggregate kind accepted")
	}
	if _, err := v.AggregateHeads(r1, ratesHigh, AggSpec{Kind: Sum, Attr: "unknown"}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestIndexStatsEvolve(t *testing.T) {
	// A bigger instance than the other tests: cracking only splits when a
	// query region covers part of an element, which needs enough points
	// for query balls not to swallow the whole space.
	g := WrapGraph(kggen.Movie(kggen.TinyMovieConfig()))
	ratesHigh, _ := g.RelationByName("likes")
	v, err := Build(g, WithSeed(42), WithEmbedding(EmbeddingParams{Dim: 16, Epochs: 10}))
	if err != nil {
		t.Fatal(err)
	}
	// A fresh cracking index is unbuilt: no nodes, every point pending.
	before := v.IndexStats()
	if before.TotalNodes != 0 || before.BinarySplits != 0 || before.Points != g.NumEntities() {
		t.Fatalf("fresh cracking index: %+v", before)
	}
	for i := 0; i < 10; i++ {
		u, ok := g.EntityByName(fmt.Sprintf("user%d", i))
		if !ok {
			t.Fatalf("missing user%d", i)
		}
		if _, err := v.TopKTails(u, ratesHigh, 5); err != nil {
			t.Fatal(err)
		}
	}
	after := v.IndexStats()
	if after.TotalNodes <= 1 {
		t.Fatalf("index did not grow: %+v", after)
	}
	if after.SizeBytes <= 0 || after.Height < 0 {
		t.Fatalf("bad stats: %+v", after)
	}
}

func TestPretrainedModelReuse(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	base, err := Build(g, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Build(g, WithPretrainedModel(base.Engine().Model()), WithAttributes("age"), WithSeed(42))
	if err != nil {
		t.Fatalf("Build with pretrained: %v", err)
	}
	if len(v2.TrainingLosses()) != 0 {
		t.Fatal("pretrained build reports training losses")
	}
	amy, _ := g.EntityByName("user0")
	a, _ := base.TopKTails(amy, ratesHigh, 5)
	b, _ := v2.TopKTails(amy, ratesHigh, 5)
	for i := range a.Predictions {
		if a.Predictions[i].Entity != b.Predictions[i].Entity {
			t.Fatal("pretrained model gives different answers")
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Fatal("nil graph accepted")
	}
	empty := NewGraph()
	if _, err := Build(empty); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestWrapGraph(t *testing.T) {
	inner := kggen.Movie(kggen.TinyMovieConfig())
	g := WrapGraph(inner)
	if g.NumEntities() != inner.NumEntities() {
		t.Fatal("WrapGraph lost entities")
	}
	v, err := Build(g, WithSeed(7), WithEmbedding(EmbeddingParams{Dim: 16, Epochs: 5}), WithAttributes("year"))
	if err != nil {
		t.Fatalf("Build over wrapped graph: %v", err)
	}
	likes, _ := g.RelationByName("likes")
	u, _ := g.EntityByName("user0")
	if _, err := v.TopKTails(u, likes, 3); err != nil {
		t.Fatalf("query over wrapped graph: %v", err)
	}
}

func TestL1Embedding(t *testing.T) {
	g, ratesHigh, _ := buildTestGraph(t)
	v, err := Build(g, fastOpts(WithEmbedding(EmbeddingParams{Dim: 16, Epochs: 10, L1: true}))...)
	if err != nil {
		t.Fatalf("Build L1: %v", err)
	}
	amy, _ := g.EntityByName("user0")
	res, err := v.TopKTails(amy, ratesHigh, 3)
	if err != nil || len(res.Predictions) != 3 {
		t.Fatalf("L1 query: %v, %d predictions", err, len(res.Predictions))
	}
}
