package embedding

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
)

func smallGraph() *kg.Graph {
	return kggen.Movie(kggen.TinyMovieConfig())
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Epochs = 8
	cfg.Dim = 16
	return cfg
}

func TestTrainValidation(t *testing.T) {
	g := smallGraph()
	empty := kg.NewGraph()
	if _, err := Train(empty, fastConfig()); err == nil {
		t.Fatal("empty graph accepted")
	}
	noTriples := kg.NewGraph()
	noTriples.AddEntity("a", "t")
	if _, err := Train(noTriples, fastConfig()); err == nil {
		t.Fatal("graph without triples accepted")
	}
	bad := fastConfig()
	bad.Dim = 0
	if _, err := Train(g, bad); err == nil {
		t.Fatal("dim 0 accepted")
	}
	bad = fastConfig()
	bad.Epochs = 0
	if _, err := Train(g, bad); err == nil {
		t.Fatal("0 epochs accepted")
	}
	bad = fastConfig()
	bad.Workers = 2
	if _, err := Train(g, bad); err == nil {
		t.Fatal("2 workers accepted")
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	g := smallGraph()
	res, err := Train(g, fastConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	losses := res.EpochLosses
	if len(losses) != 8 {
		t.Fatalf("got %d epoch losses", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestModelShapes(t *testing.T) {
	g := smallGraph()
	res, err := Train(g, fastConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	m := res.Model
	if m.NumEntities() != g.NumEntities() || m.NumRelations() != g.NumRelations() {
		t.Fatalf("model shape %d/%d, graph %d/%d",
			m.NumEntities(), m.NumRelations(), g.NumEntities(), g.NumRelations())
	}
	if len(m.EntityVec(0)) != 16 || len(m.RelVec(0)) != 16 {
		t.Fatal("vector views have wrong length")
	}
}

func TestTrueTriplesScoreBetterThanRandom(t *testing.T) {
	g := smallGraph()
	res, err := Train(g, fastConfig())
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	m := res.Model
	rng := rand.New(rand.NewSource(5))
	triples := g.Triples()
	wins := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		tr := triples[rng.Intn(len(triples))]
		var neg kg.Triple
		for {
			neg = kg.Triple{H: tr.H, R: tr.R, T: kg.EntityID(rng.Intn(g.NumEntities()))}
			if !g.HasEdge(neg.H, neg.R, neg.T) {
				break
			}
		}
		if m.Dissimilarity(tr.H, tr.R, tr.T) < m.Dissimilarity(neg.H, neg.R, neg.T) {
			wins++
		}
	}
	if frac := float64(wins) / trials; frac < 0.85 {
		t.Fatalf("true triples beat corrupted ones only %.2f of the time", frac)
	}
}

func TestQueryPoints(t *testing.T) {
	g := smallGraph()
	res, _ := Train(g, fastConfig())
	m := res.Model
	tr := g.Triples()[0]
	q := m.TailQueryPoint(tr.H, tr.R)
	hv, rv := m.EntityVec(tr.H), m.RelVec(tr.R)
	for i := range q {
		if math.Abs(q[i]-(hv[i]+rv[i])) > 1e-12 {
			t.Fatal("TailQueryPoint != h + r")
		}
	}
	q = m.HeadQueryPoint(tr.T, tr.R)
	tv := m.EntityVec(tr.T)
	for i := range q {
		if math.Abs(q[i]-(tv[i]-rv[i])) > 1e-12 {
			t.Fatal("HeadQueryPoint != t - r")
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	g := smallGraph()
	a, err := Train(g, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(g, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Model.Entities {
		if a.Model.Entities[i] != b.Model.Entities[i] {
			t.Fatal("training not deterministic")
		}
	}
}

func TestL1Training(t *testing.T) {
	g := smallGraph()
	cfg := fastConfig()
	cfg.Norm = L1
	res, err := Train(g, cfg)
	if err != nil {
		t.Fatalf("L1 Train: %v", err)
	}
	if res.Model.NormUsed != L1 {
		t.Fatal("NormUsed not recorded")
	}
	tr := g.Triples()[0]
	d := res.Model.Dissimilarity(tr.H, tr.R, tr.T)
	if d < 0 || math.IsNaN(d) {
		t.Fatalf("L1 dissimilarity = %v", d)
	}
}

func TestUniformSampling(t *testing.T) {
	g := smallGraph()
	cfg := fastConfig()
	cfg.Sampling = Uniform
	if _, err := Train(g, cfg); err != nil {
		t.Fatalf("uniform sampling Train: %v", err)
	}
}

func TestPositivePullTightensNeighborhoods(t *testing.T) {
	g := smallGraph()
	base := fastConfig()
	base.PositivePull = 0
	pulled := fastConfig()
	pulled.PositivePull = 0.5

	mean := func(cfg Config) float64 {
		res, err := Train(g, cfg)
		if err != nil {
			t.Fatalf("Train: %v", err)
		}
		var s float64
		triples := g.Triples()
		for _, tr := range triples[:200] {
			s += res.Model.Dissimilarity(tr.H, tr.R, tr.T)
		}
		// Normalize by the global scale so the comparison is about
		// relative contrast, not absolute shrinkage.
		var scale float64
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 200; i++ {
			a := kg.EntityID(rng.Intn(g.NumEntities()))
			b := kg.EntityID(rng.Intn(g.NumEntities()))
			ev, fv := res.Model.EntityVec(a), res.Model.EntityVec(b)
			var d float64
			for j := range ev {
				x := ev[j] - fv[j]
				d += x * x
			}
			scale += math.Sqrt(d)
		}
		return s / scale
	}
	if rPull, rBase := mean(pulled), mean(base); rPull >= rBase {
		t.Fatalf("positive pull did not tighten positives: %v vs %v", rPull, rBase)
	}
}

func TestSaveLoadModel(t *testing.T) {
	g := smallGraph()
	res, _ := Train(g, fastConfig())
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	m, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if m.Dim != res.Model.Dim || m.NumEntities() != res.Model.NumEntities() {
		t.Fatal("round trip changed shape")
	}
	for i := range m.Entities {
		if m.Entities[i] != res.Model.Entities[i] {
			t.Fatal("round trip changed weights")
		}
	}
	var bad bytes.Buffer
	bad.WriteString("garbage")
	if _, err := Load(&bad); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestEvaluateTailRanking(t *testing.T) {
	g := kggen.Movie(kggen.TinyMovieConfig())
	train, test := kg.Split(g, 0.1, true, rand.New(rand.NewSource(3)))
	cfg := DefaultConfig()
	cfg.Epochs = 15
	cfg.Dim = 24
	res, err := Train(train, cfg)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	if len(test) > 40 {
		test = test[:40]
	}
	rank := EvaluateTailRanking(res.Model, train, test)
	if rank.Queries != len(test) {
		t.Fatalf("Queries = %d, want %d", rank.Queries, len(test))
	}
	// The embedding must rank masked true tails better than random (random
	// mean rank would be ~half the entity count; some masked edges are the
	// generator's noise edges, which legitimately rank poorly).
	if rank.MeanRank > float64(g.NumEntities())*0.4 {
		t.Fatalf("mean rank %v suggests the embedding learned nothing", rank.MeanRank)
	}
	if rank.HitsAt10 <= 0 {
		t.Fatalf("hits@10 = %v", rank.HitsAt10)
	}
}

func TestTopTails(t *testing.T) {
	g := smallGraph()
	res, _ := Train(g, fastConfig())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	got := TopTails(res.Model, g, users[0], likes, 5)
	if len(got) != 5 {
		t.Fatalf("got %d tails", len(got))
	}
	for _, id := range got {
		if g.HasEdge(users[0], likes, id) {
			t.Fatalf("TopTails returned known edge to %d", id)
		}
		if id == users[0] {
			t.Fatal("TopTails returned the query entity")
		}
	}
}
