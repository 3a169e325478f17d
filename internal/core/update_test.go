package core

import (
	"testing"

	"vkgraph/internal/kg"
)

func TestAddFactExcludesFromPredictions(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	res, err := eng.TopK(DirTail, u, likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictions) == 0 {
		t.Fatal("no predictions")
	}
	top := res.Predictions[0].Entity

	// Record the predicted fact; it must vanish from the next answer.
	if err := eng.AddFact(u, likes, top); err != nil {
		t.Fatalf("AddFact: %v", err)
	}
	if !g.HasEdge(u, likes, top) {
		t.Fatal("fact not recorded")
	}
	res2, err := eng.TopK(DirTail, u, likes, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res2.Predictions {
		if p.Entity == top {
			t.Fatal("recorded fact still predicted")
		}
	}
	// Duplicate insert is a no-op.
	before := g.NumTriples()
	if err := eng.AddFact(u, likes, top); err != nil {
		t.Fatalf("duplicate AddFact: %v", err)
	}
	if g.NumTriples() != before {
		t.Fatal("duplicate fact stored")
	}
}

func TestAddFactValidation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	if err := eng.AddFact(-1, likes, 0); err == nil {
		t.Fatal("negative head accepted")
	}
	if err := eng.AddFact(0, 99, 1); err == nil {
		t.Fatal("bad relation accepted")
	}
}

func TestInsertEntity(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	users := g.EntitiesOfType("user")
	movies := g.EntitiesOfType("movie")

	// Warm the index so the insert lands in a cracked structure.
	for _, u := range users[:10] {
		if _, err := eng.TopK(DirTail, u, likes, 5); err != nil {
			t.Fatal(err)
		}
	}

	// A new movie liked by three users who all like the same things.
	facts := []Fact{
		{Rel: likes, Other: users[0]},
		{Rel: likes, Other: users[1]},
		{Rel: likes, Other: users[2]},
	}
	id, err := eng.InsertEntity("new-movie", "movie", facts, map[string]float64{"year": 2024})
	if err != nil {
		t.Fatalf("InsertEntity: %v", err)
	}
	if int(id) != g.NumEntities()-1 {
		t.Fatalf("new id %d, want %d", id, g.NumEntities()-1)
	}
	if !g.HasEdge(users[0], likes, id) {
		t.Fatal("initial fact missing")
	}
	if y, ok := g.Attr("year", id); !ok || y != 2024 {
		t.Fatalf("attribute: %v, %v", y, ok)
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("index invariants after insert: %v", err)
	}

	// The new entity must be queryable...
	res, err := eng.TopK(DirTail, id, likes, 3)
	_ = res
	if err != nil {
		t.Fatalf("query on new entity: %v", err)
	}
	// ...and reachable as a prediction: users similar to its fans should
	// see it near the top, since its vector sits at their h+r locus.
	found := false
	for _, u := range users[3:40] {
		r, err := eng.TopK(DirTail, u, likes, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range r.Predictions {
			if p.Entity == id {
				found = true
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("inserted entity never predicted for similar users")
	}

	// Aggregates see the new attribute value through the refreshed column.
	agg, err := eng.Aggregate(DirTail, users[0], likes, AggQuery{Kind: Max, Attr: "year"})
	if err != nil {
		t.Fatalf("aggregate after insert: %v", err)
	}
	if agg.Value < 2020 {
		t.Fatalf("MAX year %v does not reflect the 2024 insert", agg.Value)
	}
	_ = movies
}

func TestInsertEntityValidation(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	if _, err := eng.InsertEntity("x", "movie", nil, nil); err == nil {
		t.Fatal("insert without facts accepted")
	}
	if _, err := eng.InsertEntity("x", "movie", []Fact{{Rel: likes, Other: 9999}}, nil); err == nil {
		t.Fatal("fact with bad endpoint accepted")
	}
	if _, err := eng.InsertEntity("x", "movie", []Fact{{Rel: 99, Other: 0}}, nil); err == nil {
		t.Fatal("fact with bad relation accepted")
	}
}

// TestInsertEntityFailureAtomicity pins the all-or-nothing contract: a
// rejected InsertEntity must leave graph, model, point set, and generation
// exactly as they were, even when the invalid fact comes after valid ones
// (validation runs to completion before the first mutation).
func TestInsertEntityFailureAtomicity(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	u := g.EntitiesOfType("user")[0]

	entBefore := g.NumEntities()
	triBefore := g.NumTriples()
	modelBefore := len(eng.m.Entities)
	psBefore := eng.ps.N()
	genBefore := eng.gen.Load()

	// First fact valid, second invalid: nothing of the first may stick.
	_, err := eng.InsertEntity("ghost", "movie", []Fact{
		{Rel: likes, Other: u},
		{Rel: kg.RelationID(99), Other: u},
	}, map[string]float64{"year": 1999})
	if err == nil {
		t.Fatal("insert with invalid relation accepted")
	}
	_, err = eng.InsertEntity("ghost", "movie", []Fact{
		{Rel: likes, Other: u},
		{Rel: likes, Other: kg.EntityID(g.NumEntities() + 7)},
	}, nil)
	if err == nil {
		t.Fatal("insert with out-of-range endpoint accepted")
	}

	if g.NumEntities() != entBefore {
		t.Fatalf("entities %d, want %d", g.NumEntities(), entBefore)
	}
	if g.NumTriples() != triBefore {
		t.Fatalf("triples %d, want %d (partial fact applied)", g.NumTriples(), triBefore)
	}
	if len(eng.m.Entities) != modelBefore {
		t.Fatalf("model grew to %d floats, want %d", len(eng.m.Entities), modelBefore)
	}
	if eng.ps.N() != psBefore {
		t.Fatalf("point set grew to %d, want %d", eng.ps.N(), psBefore)
	}
	if eng.gen.Load() != genBefore {
		t.Fatalf("generation bumped to %d by a failed insert", eng.gen.Load())
	}
	if err := eng.CheckInvariants(); err != nil {
		t.Fatalf("invariants after failed insert: %v", err)
	}

	// The engine is still fully usable: a valid insert goes through.
	if _, err := eng.InsertEntity("real", "movie", []Fact{{Rel: likes, Other: u}}, nil); err != nil {
		t.Fatalf("valid insert after failures: %v", err)
	}
	if eng.gen.Load() != genBefore+1 {
		t.Fatalf("generation %d after valid insert, want %d", eng.gen.Load(), genBefore+1)
	}
}

func TestInsertEntityHeadRole(t *testing.T) {
	eng, g := testEngine(t, Crack, defaultTestParams())
	likes, _ := g.RelationByName("likes")
	movies := g.EntitiesOfType("movie")
	// A new user who likes three specific movies: the user is the HEAD of
	// its facts.
	id, err := eng.InsertEntity("new-user", "user", []Fact{
		{Rel: likes, Other: movies[0], NewIsHead: true},
		{Rel: likes, Other: movies[1], NewIsHead: true},
	}, map[string]float64{"age": 33})
	if err != nil {
		t.Fatalf("InsertEntity: %v", err)
	}
	if !g.HasEdge(id, likes, movies[0]) {
		t.Fatal("head-role fact missing")
	}
	res, err := eng.TopK(DirTail, id, likes, 5)
	if err != nil {
		t.Fatalf("query for new user: %v", err)
	}
	for _, p := range res.Predictions {
		if p.Entity == movies[0] || p.Entity == movies[1] {
			t.Fatal("known fact predicted for new user")
		}
	}
}

func TestDynamicGraphInsert(t *testing.T) {
	g := kg.NewGraph()
	a := g.AddEntity("a", "t")
	b := g.AddEntity("b", "t")
	c := g.AddEntity("c", "t")
	r := g.AddRelation("r")
	g.MustAddTriple(a, r, b)
	g.Freeze()
	if err := g.InsertTripleDynamic(a, r, c); err != nil {
		t.Fatalf("InsertTripleDynamic: %v", err)
	}
	if !g.HasEdge(a, r, c) {
		t.Fatal("dynamic edge missing")
	}
	tails := g.Tails(a, r)
	for i := 1; i < len(tails); i++ {
		if tails[i-1] > tails[i] {
			t.Fatal("adjacency no longer sorted after dynamic insert")
		}
	}
	if err := g.InsertTripleDynamic(a, r, 99); err == nil {
		t.Fatal("bad dynamic insert accepted")
	}
}
