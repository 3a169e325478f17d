package kg

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	amy := g.AddEntity("Amy", "user")
	bob := g.AddEntity("Bob", "user")
	r1 := g.AddEntity("Restaurant 1", "restaurant")
	r2 := g.AddEntity("Restaurant 2", "restaurant")
	likes := g.AddRelation("rates-high")
	if err := g.AddTriple(amy, likes, r1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTriple(bob, likes, r1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddTriple(bob, likes, r2); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBasicConstruction(t *testing.T) {
	g := buildSample(t)
	if g.NumEntities() != 4 || g.NumRelations() != 1 || g.NumTriples() != 3 {
		t.Fatalf("counts: %d entities, %d relations, %d triples",
			g.NumEntities(), g.NumRelations(), g.NumTriples())
	}
	amy, ok := g.EntityByName("Amy")
	if !ok {
		t.Fatal("EntityByName(Amy) failed")
	}
	if g.Entity(amy).Type != "user" {
		t.Fatalf("Amy's type = %q", g.Entity(amy).Type)
	}
	likes, ok := g.RelationByName("rates-high")
	if !ok {
		t.Fatal("RelationByName failed")
	}
	r1, _ := g.EntityByName("Restaurant 1")
	if !g.HasEdge(amy, likes, r1) {
		t.Fatal("HasEdge missing known edge")
	}
	r2, _ := g.EntityByName("Restaurant 2")
	if g.HasEdge(amy, likes, r2) {
		t.Fatal("HasEdge invented an edge")
	}
	if got := len(g.EntitiesOfType("user")); got != 2 {
		t.Fatalf("EntitiesOfType(user) = %d", got)
	}
}

func TestDuplicateTriplesIgnored(t *testing.T) {
	g := buildSample(t)
	amy, _ := g.EntityByName("Amy")
	r1, _ := g.EntityByName("Restaurant 1")
	likes, _ := g.RelationByName("rates-high")
	before := g.NumTriples()
	if err := g.AddTriple(amy, likes, r1); err != nil {
		t.Fatal(err)
	}
	if g.NumTriples() != before {
		t.Fatalf("duplicate triple stored")
	}
}

func TestAddTripleValidation(t *testing.T) {
	g := buildSample(t)
	likes, _ := g.RelationByName("rates-high")
	if err := g.AddTriple(-1, likes, 0); err == nil {
		t.Fatal("negative head accepted")
	}
	if err := g.AddTriple(0, likes, 99); err == nil {
		t.Fatal("out-of-range tail accepted")
	}
	if err := g.AddTriple(0, 7, 1); err == nil {
		t.Fatal("out-of-range relation accepted")
	}
	g.Freeze()
	if err := g.AddTriple(0, likes, 1); err == nil {
		t.Fatal("mutation after Freeze accepted")
	}
}

func TestAdjacency(t *testing.T) {
	g := buildSample(t)
	g.Freeze()
	bob, _ := g.EntityByName("Bob")
	r1, _ := g.EntityByName("Restaurant 1")
	likes, _ := g.RelationByName("rates-high")
	if got := g.Tails(bob, likes); len(got) != 2 {
		t.Fatalf("Tails(bob) = %v", got)
	}
	if got := g.Heads(r1, likes); len(got) != 2 {
		t.Fatalf("Heads(r1) = %v", got)
	}
	// Frozen adjacency is sorted.
	tails := g.Tails(bob, likes)
	for i := 1; i < len(tails); i++ {
		if tails[i-1] > tails[i] {
			t.Fatalf("Tails not sorted after Freeze: %v", tails)
		}
	}
}

func TestAttrs(t *testing.T) {
	g := buildSample(t)
	amy, _ := g.EntityByName("Amy")
	bob, _ := g.EntityByName("Bob")
	g.SetAttr("age", bob, 42)
	if v, ok := g.Attr("age", bob); !ok || v != 42 {
		t.Fatalf("Attr(bob) = %v, %v", v, ok)
	}
	if _, ok := g.Attr("age", amy); ok {
		t.Fatal("Amy has an age she was never given")
	}
	if _, ok := g.Attr("height", bob); ok {
		t.Fatal("unknown attribute returned a value")
	}
	col, ok := g.AttrColumn("age")
	if !ok || len(col) <= int(bob) {
		t.Fatalf("AttrColumn: %v, %v", col, ok)
	}
	if names := g.AttrNames(); len(names) != 1 || names[0] != "age" {
		t.Fatalf("AttrNames = %v", names)
	}
}

func TestDegrees(t *testing.T) {
	g := buildSample(t)
	bob, _ := g.EntityByName("Bob")
	r1, _ := g.EntityByName("Restaurant 1")
	deg := g.Degrees()
	if deg[bob] != 2 || deg[r1] != 2 {
		t.Fatalf("degrees: bob=%d r1=%d", deg[bob], deg[r1])
	}
	st := g.Stats()
	if st.Entities != 4 || st.Edges != 3 || st.MaxDegree != 2 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.MeanDegree != 6.0/4 {
		t.Fatalf("MeanDegree = %v", st.MeanDegree)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := buildSample(t)
	bob, _ := g.EntityByName("Bob")
	g.SetAttr("age", bob, 42)
	g.Freeze()
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.NumEntities() != g.NumEntities() || got.NumTriples() != g.NumTriples() {
		t.Fatalf("round trip lost data: %d/%d", got.NumEntities(), got.NumTriples())
	}
	bob2, ok := got.EntityByName("Bob")
	if !ok || bob2 != bob {
		t.Fatalf("Bob id changed: %d -> %d", bob, bob2)
	}
	if v, ok := got.Attr("age", bob2); !ok || v != 42 {
		t.Fatalf("attr lost: %v, %v", v, ok)
	}
	likes, _ := got.RelationByName("rates-high")
	r1, _ := got.EntityByName("Restaurant 1")
	if !got.HasEdge(bob2, likes, r1) {
		t.Fatal("edge lost in round trip")
	}
	var bad bytes.Buffer
	bad.WriteString("junk")
	if _, err := Load(&bad); err == nil {
		t.Fatal("Load accepted garbage")
	}
}

func TestSplit(t *testing.T) {
	g := NewGraph()
	rel := g.AddRelation("r")
	const n = 60
	ids := make([]EntityID, n)
	for i := range ids {
		ids[i] = g.AddEntity("", "t")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			t2 := ids[rng.Intn(n)]
			if t2 != ids[i] {
				g.MustAddTriple(ids[i], rel, t2)
			}
		}
	}
	total := g.NumTriples()
	train, test := Split(g, 0.2, true, rand.New(rand.NewSource(2)))
	if train.NumTriples()+len(test) != total {
		t.Fatalf("split lost triples: %d + %d != %d", train.NumTriples(), len(test), total)
	}
	if len(test) == 0 {
		t.Fatal("no test triples masked")
	}
	// keepConnected: every entity still has at least one edge.
	deg, full := train.Degrees(), g.Degrees()
	for id, d := range deg {
		if d == 0 && full[id] > 0 {
			t.Fatalf("entity %d disconnected by split", id)
		}
	}
	// Masked triples are absent from train.
	for _, tr := range test {
		if train.HasEdge(tr.H, tr.R, tr.T) {
			t.Fatalf("masked triple %v still in train", tr)
		}
	}
}

func TestSplitValidation(t *testing.T) {
	g := buildSample(t)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid fraction did not panic")
		}
	}()
	Split(g, 1.5, false, rand.New(rand.NewSource(1)))
}

// Property: HasEdge agrees between frozen and unfrozen graphs.
func TestQuickFreezeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph()
		rel := g.AddRelation("r")
		n := 20
		for i := 0; i < n; i++ {
			g.AddEntity("", "t")
		}
		type edge struct{ h, t EntityID }
		var edges []edge
		for i := 0; i < 50; i++ {
			e := edge{EntityID(rng.Intn(n)), EntityID(rng.Intn(n))}
			if err := g.AddTriple(e.h, rel, e.t); err != nil {
				return false
			}
			edges = append(edges, e)
		}
		before := make([]bool, len(edges))
		for i, e := range edges {
			before[i] = g.HasEdge(e.h, rel, e.t)
		}
		g.Freeze()
		for i, e := range edges {
			if g.HasEdge(e.h, rel, e.t) != before[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
