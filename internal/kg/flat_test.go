package kg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vkgraph/internal/snapfmt"
)

// mapGraph is the map form the flat layout replaced: entities as structs, a
// name map in which the first entity wins, and the adjacency as lists keyed
// by (entity, relation), in insertion order.
type mapGraph struct {
	ents         []Entity
	byName       map[string]EntityID
	tails, heads map[edgeKey][]EntityID
	triples      []Triple
	seen         map[Triple]bool
}

func newMapGraph() *mapGraph {
	return &mapGraph{
		byName: map[string]EntityID{},
		tails:  map[edgeKey][]EntityID{},
		heads:  map[edgeKey][]EntityID{},
		seen:   map[Triple]bool{},
	}
}

func (m *mapGraph) addEntity(name, typ string) EntityID {
	id := EntityID(len(m.ents))
	m.ents = append(m.ents, Entity{ID: id, Name: name, Type: typ})
	if _, ok := m.byName[name]; !ok {
		m.byName[name] = id
	}
	return id
}

func (m *mapGraph) addTriple(h EntityID, r RelationID, t EntityID) {
	tr := Triple{H: h, R: r, T: t}
	if m.seen[tr] {
		return
	}
	m.seen[tr] = true
	m.triples = append(m.triples, tr)
	m.tails[edgeKey{h, r}] = append(m.tails[edgeKey{h, r}], t)
	m.heads[edgeKey{t, r}] = append(m.heads[edgeKey{t, r}], h)
}

func (m *mapGraph) degree(id EntityID) int {
	n := 0
	for _, t := range m.triples {
		if t.H == id || t.T == id {
			n++
		}
	}
	return n
}

// flatCase builds one random graph in both forms.
type flatCase struct {
	rng   *rand.Rand
	g     *Graph
	m     *mapGraph
	nRel  int
	names []string // the name pool: repeats, one name never used, and names new since Freeze
}

func newFlatCase(seed int64, nRel int) *flatCase {
	c := &flatCase{rng: rand.New(rand.NewSource(seed)), g: NewGraph(), m: newMapGraph(), nRel: nRel}
	for r := 0; r < nRel; r++ {
		c.g.AddRelation(fmt.Sprintf("r%d", r))
	}
	for i := 0; i <= 20; i++ {
		c.names = append(c.names, fmt.Sprintf("e%d", i))
	}
	c.names = append(c.names, "")
	n := 24 + c.rng.Intn(8)
	for i := 0; i < n; i++ {
		c.addEntity()
	}
	// Edges touch only the first two thirds of the entities, so the rest
	// are isolated; some triples repeat and some are self-loops.
	for i := 0; i < 4*n; i++ {
		h, r, t := c.randomEdge(2 * n / 3)
		if err := c.g.AddTriple(h, r, t); err != nil {
			panic(err)
		}
		c.m.addTriple(h, r, t)
	}
	return c
}

func (c *flatCase) addEntity() {
	// names[20] ("e20") is never drawn: the probe for a missing name.
	name := c.names[c.rng.Intn(20)]
	if c.rng.Intn(8) == 0 {
		name = ""
	}
	c.addNamed(name)
}

func (c *flatCase) addNamed(name string) {
	typ := []string{"user", "item", "tag"}[c.rng.Intn(3)]
	if got, want := c.g.AddEntity(name, typ), c.m.addEntity(name, typ); got != want {
		panic(fmt.Sprintf("AddEntity id %d, map form %d", got, want))
	}
}

func (c *flatCase) randomEdge(span int) (EntityID, RelationID, EntityID) {
	h := EntityID(c.rng.Intn(span))
	t := EntityID(c.rng.Intn(span))
	if c.rng.Intn(10) == 0 {
		t = h
	}
	r := RelationID(c.rng.Intn(c.nRel))
	if c.rng.Intn(3) > 0 {
		r = RelationID(c.rng.Intn(min(c.nRel, 2))) // most edges share a few relations
	}
	if c.rng.Intn(6) == 0 && len(c.m.triples) > 0 {
		tr := c.m.triples[c.rng.Intn(len(c.m.triples))]
		return tr.H, tr.R, tr.T
	}
	return h, r, t
}

// check holds every lookup of g to the map form.
func (c *flatCase) check(t *testing.T, stage string, g *Graph) {
	t.Helper()
	m := c.m
	if g.NumEntities() != len(m.ents) || g.NumTriples() != len(m.triples) {
		t.Fatalf("%s: %d entities, %d triples; map form %d, %d",
			stage, g.NumEntities(), g.NumTriples(), len(m.ents), len(m.triples))
	}
	if !slices.Equal(g.Triples(), m.triples) {
		t.Fatalf("%s: Triples differ from the map form's", stage)
	}
	sorted := func(l []EntityID) []EntityID {
		if g.Frozen() {
			l = slices.Clone(l)
			slices.Sort(l)
		}
		return l
	}
	for id := EntityID(0); int(id) < len(m.ents); id++ {
		if got := g.Entity(id); got != m.ents[id] {
			t.Fatalf("%s: Entity(%d) = %+v, want %+v", stage, id, got, m.ents[id])
		}
		if got, want := g.Degree(id), m.degree(id); got != want {
			t.Fatalf("%s: Degree(%d) = %d, want %d", stage, id, got, want)
		}
		for r := RelationID(0); int(r) < c.nRel; r++ {
			if got, want := g.Tails(id, r), sorted(m.tails[edgeKey{id, r}]); !slices.Equal(got, want) {
				t.Fatalf("%s: Tails(%d, %d) = %v, want %v", stage, id, r, got, want)
			}
			if got, want := g.Heads(id, r), sorted(m.heads[edgeKey{id, r}]); !slices.Equal(got, want) {
				t.Fatalf("%s: Heads(%d, %d) = %v, want %v", stage, id, r, got, want)
			}
			// Every tail of a key with tails, a few of one without.
			others := []EntityID{-1, 0, id, EntityID(len(m.ents))}
			if len(m.tails[edgeKey{id, r}]) > 0 {
				others = others[:0]
				for o := EntityID(-1); int(o) <= len(m.ents); o++ {
					others = append(others, o)
				}
			}
			for _, o := range others {
				if got, want := g.HasEdge(id, r, o), m.seen[Triple{id, r, o}]; got != want {
					t.Fatalf("%s: HasEdge(%d, %d, %d) = %v, want %v", stage, id, r, o, got, want)
				}
			}
		}
	}
	for _, e := range []EntityID{-1, EntityID(len(m.ents))} {
		if g.HasEdge(e, 0, 0) || g.Tails(e, 0) != nil || g.Heads(e, 0) != nil {
			t.Fatalf("%s: entity %d is out of range but has edges", stage, e)
		}
	}
	for _, name := range c.names {
		got, ok := g.EntityByName(name)
		want, wok := m.byName[name]
		if got != want || ok != wok {
			t.Fatalf("%s: EntityByName(%q) = %d, %v; want %d, %v", stage, name, got, ok, want, wok)
		}
	}
}

// TestFlatGraphMatchesMapForm holds the flat layout to the map form it
// replaced over random graphs with 1, 4 and 120 relations, isolated
// entities, repeated triples, self-loops and repeated names: before Freeze,
// after it, through post-Freeze inserts and entities that cross the fold
// threshold, and after Save and Load.
func TestFlatGraphMatchesMapForm(t *testing.T) {
	for _, nRel := range []int{1, 4, 120} {
		for seed := int64(1); seed <= 3; seed++ {
			c := newFlatCase(seed*1000+int64(nRel), nRel)
			g := c.g
			c.check(t, "built", g)
			g.Freeze()
			c.check(t, "frozen", g)

			var overlaid, folds, nameFolds int
			for step := 0; step < 60; step++ {
				before, namesBefore := g.overlayIDs, len(g.nameMap)
				switch {
				case c.rng.Intn(4) > 0:
					h, r, tl := c.randomEdge(len(c.m.ents))
					if err := g.InsertTripleDynamic(h, r, tl); err != nil {
						t.Fatal(err)
					}
					c.m.addTriple(h, r, tl)
				case c.rng.Intn(4) > 0:
					// A name no entity carries goes to the name map.
					name := fmt.Sprintf("new%d", step)
					c.names = append(c.names, name)
					c.addNamed(name)
				default:
					c.addEntity()
				}
				if g.overlayIDs > 0 || len(g.nameMap) > 0 {
					overlaid++
				}
				if g.overlayIDs < before {
					folds++
				}
				if len(g.nameMap) < namesBefore {
					nameFolds++
				}
				c.check(t, fmt.Sprintf("step %d", step), g)
			}
			if overlaid == 0 || folds == 0 || nameFolds == 0 {
				t.Fatalf("%d relations, seed %d: %d checks with an overlay, %d edge folds, %d name folds; want all > 0",
					nRel, seed, overlaid, folds, nameFolds)
			}
			if err := g.InsertTripleDynamic(0, RelationID(nRel), 0); err == nil {
				t.Fatal("InsertTripleDynamic accepted an unknown relation")
			}

			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, "loaded", loaded)
		}
	}
}

// TestLoadKeepsFirstOccurrence feeds Decode a graph whose triple list
// repeats triples, as no Save writes: each is kept once, at its first
// position.
func TestLoadKeepsFirstOccurrence(t *testing.T) {
	g, err := Decode(repeatsPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []Triple{{1, 0, 0}, {0, 1, 0}, {0, 0, 2}, {2, 0, 1}}
	if !slices.Equal(g.Triples(), want) {
		t.Fatalf("Triples = %v, want %v", g.Triples(), want)
	}
	if got := g.Heads(0, 1); !slices.Equal(got, []EntityID{0}) {
		t.Fatalf("Heads(0, s) = %v, want [0]", got)
	}
	if id, ok := g.EntityByName("a"); !ok || id != 0 {
		t.Fatalf("EntityByName(a) = %d, %v; the first entity named a is 0", id, ok)
	}

	bad := repeatsPayload(func(g *Graph) { g.types[1] = 7 })
	if _, err := Decode(bad); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Decode of an entity with an unknown type = %v, want ErrCorrupt", err)
	}
}

// TestTripleCountPastPayload: a triple count the bytes left cannot hold
// fails with ErrCorrupt before the triple list is sized by it.
func TestTripleCountPastPayload(t *testing.T) {
	payload := repeatsPayload(nil)
	// The payload ends with the triple count, six triples of 12 bytes and
	// an attribute count of 0.
	binary.LittleEndian.PutUint32(payload[len(payload)-4-6*12-4:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapfmt.ErrCorrupt) || !strings.Contains(err.Error(), "count 1073741824 of 12-byte entries") {
		t.Fatalf("Decode = %v, want ErrCorrupt for the triple count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("Decode of a %d-byte payload allocated %d bytes", len(payload), got)
	}
}

// repeatsPayload is the payload of a three-entity graph whose triple list
// repeats triples, edited by edit first if it is not nil.
func repeatsPayload(edit func(*Graph)) []byte {
	g := NewGraph()
	g.AddEntity("a", "t")
	g.AddEntity("b", "t")
	g.AddEntity("a", "u")
	g.AddRelation("r")
	g.AddRelation("s")
	g.triples = []Triple{{1, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 2}, {0, 1, 0}, {2, 0, 1}}
	if edit != nil {
		edit(g)
	}
	var w snapfmt.Writer
	g.Encode(&w)
	return w.Bytes()
}
