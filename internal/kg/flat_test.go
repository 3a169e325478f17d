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

// degrees returns each entity's out-degree plus in-degree, so a self-loop
// counts twice.
func (m *mapGraph) degrees() []int {
	deg := make([]int, len(m.ents))
	for k, l := range m.tails {
		deg[k.E] += len(l)
	}
	for k, l := range m.heads {
		deg[k.E] += len(l)
	}
	return deg
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
	deg, wantDeg := g.Degrees(), m.degrees()
	for id := EntityID(0); int(id) < len(m.ents); id++ {
		if got := g.Entity(id); got != m.ents[id] {
			t.Fatalf("%s: Entity(%d) = %+v, want %+v", stage, id, got, m.ents[id])
		}
		if got, want := deg[id], wantDeg[id]; got != want {
			t.Fatalf("%s: Degrees()[%d] = %d, want %d", stage, id, got, want)
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

// TestLoadKeepsFirstOccurrence: a triple added twice is stored once, at
// its first position, and Save and Load keep that order. A payload cannot
// repeat a triple: the triple order would name one position twice, which
// Decode refuses.
func TestLoadKeepsFirstOccurrence(t *testing.T) {
	g, err := Decode(smallPayload(nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []Triple{{1, 0, 0}, {0, 1, 0}, {0, 0, 2}, {2, 0, 1}, {0, 0, 0}, {3, 1, 3}}
	if !slices.Equal(g.Triples(), want) {
		t.Fatalf("Triples = %v, want %v", g.Triples(), want)
	}
	if got := g.Heads(0, 1); !slices.Equal(got, []EntityID{0}) {
		t.Fatalf("Heads(0, s) = %v, want [0]", got)
	}
	if got := g.Tails(0, 0); !slices.Equal(got, []EntityID{0, 2}) {
		t.Fatalf("Tails(0, r) = %v, want [0 2]", got)
	}
	if id, ok := g.EntityByName("a"); !ok || id != 0 {
		t.Fatalf("EntityByName(a) = %d, %v; the first entity named a is 0", id, ok)
	}

	bad := smallPayload(func(g *Graph) { g.types[1] = 7 })
	if _, err := Decode(bad); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Decode of an entity with an unknown type = %v, want ErrCorrupt", err)
	}
	repeat := layoutPayload(func(l *layout) { l.order[2] = l.order[0] })
	if _, err := Decode(repeat); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("Decode of a repeated triple = %v, want ErrCorrupt", err)
	}
}

// TestTripleCountPastPayload: a triple count the bytes left cannot hold
// fails with ErrCorrupt before the triple list is sized by it.
func TestTripleCountPastPayload(t *testing.T) {
	payload := smallPayload(nil)
	// The payload ends with the triple order (a count and six int32s) and
	// an attribute count of 0.
	binary.LittleEndian.PutUint32(payload[len(payload)-4-6*4-4:], 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(payload)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, snapfmt.ErrCorrupt) || !strings.Contains(err.Error(), "count 1073741824 of 4-byte entries") {
		t.Fatalf("Decode = %v, want ErrCorrupt for the triple count", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
		t.Fatalf("Decode of a %d-byte payload allocated %d bytes", len(payload), got)
	}
}

// smallGraph is a frozen four-entity graph over two relations, with a
// repeated name, a self-loop and triples added twice:
//
//	out: 0 -r-> [0 2], 0 -s-> [0], 1 -r-> [0], 2 -r-> [1], 3 -s-> [3]
func smallGraph() *Graph {
	g := NewGraph()
	g.AddEntity("a", "t")
	g.AddEntity("b", "t")
	g.AddEntity("a", "u")
	g.AddEntity("c", "t")
	g.AddRelation("r")
	g.AddRelation("s")
	for _, tr := range []Triple{{1, 0, 0}, {0, 1, 0}, {1, 0, 0}, {0, 0, 2}, {0, 1, 0}, {2, 0, 1}, {0, 0, 0}, {3, 1, 3}} {
		g.MustAddTriple(tr.H, tr.R, tr.T)
	}
	g.Freeze()
	return g
}

// smallPayload is smallGraph's payload, edited by edit first if it is not
// nil.
func smallPayload(edit func(*Graph)) []byte {
	g := smallGraph()
	if edit != nil {
		edit(g)
	}
	var w snapfmt.Writer
	g.Encode(&w)
	return w.Bytes()
}

// layoutPayload is smallGraph's payload with its stored layout edited by
// edit, on a copy.
func layoutPayload(edit func(*layout)) []byte {
	g := smallGraph()
	l := g.layout()
	for _, a := range []*adjacency{&l.out, &l.in} {
		a.start, a.runs, a.ids = slices.Clone(a.start), slices.Clone(a.runs), slices.Clone(a.ids)
	}
	l.byName, l.order = slices.Clone(l.byName), slices.Clone(l.order)
	edit(&l)
	var w snapfmt.Writer
	g.encode(&w, l)
	return w.Bytes()
}

// badLayouts breaks each check Decode makes of a stored layout, once, in
// smallGraph's payload; want is a piece of the error each must give.
var badLayouts = []struct {
	name, want string
	edit       func(*layout)
}{
	{"start length", "run starts for", func(l *layout) { l.out.start = l.out.start[:4] }},
	{"start not from 0", "run starts for", func(l *layout) { l.in.start[0] = 1 }},
	{"start not monotone", "start before", func(l *layout) { l.out.start[1] = 4 }},
	{"start not ending at len(runs)", "run starts for", func(l *layout) { l.out.start[4] = 4 }},
	{"empty run", "run ends at", func(l *layout) { l.out.runs[1].End = l.out.runs[0].End }},
	{"relation out of range", "of 2 relations", func(l *layout) { l.out.runs[4].R = 2 }},
	{"relations not increasing", "relation 0 after 1", func(l *layout) { l.out.runs[0].R, l.out.runs[1].R = 1, 0 }},
	{"runs not ending at len(ids)", "runs end at", func(l *layout) { l.in.ids = append(l.in.ids, 0) }},
	{"id out of range", "of 4 entities", func(l *layout) { l.out.ids[5] = 4 }},
	{"ids not increasing", "id 0 after 2", func(l *layout) { l.out.ids[0], l.out.ids[1] = 2, 0 }},
	{"in not the transpose", "is in out but not in in", func(l *layout) { l.in.ids[5] = 2 }},
	{"in a relation short", "in out but not in in", func(l *layout) { l.in.runs[len(l.in.runs)-1].R = 0 }},
	{"order length", "5 triples for 6 ids", func(l *layout) { l.order = l.order[:5] }},
	{"order out of range", "out of range or taken", func(l *layout) { l.order[0] = 6 }},
	{"order not a permutation", "out of range or taken", func(l *layout) { l.order[1] = l.order[0] }},
	{"name index length", "name index holds", func(l *layout) { l.byName = l.byName[:3] }},
	{"name index out of range", "of 4 entities", func(l *layout) { l.byName[3] = 4 }},
	{"name index unsorted", "name index: id", func(l *layout) { l.byName[0], l.byName[3] = l.byName[3], l.byName[0] }},
	{"name index repeat", "name index: id", func(l *layout) { l.byName[1] = l.byName[0] }},
}

// TestDecodeRefusesBadLayout plants each broken layout check: every one is
// ErrCorrupt, for the check it breaks.
func TestDecodeRefusesBadLayout(t *testing.T) {
	if _, err := Decode(layoutPayload(func(*layout) {})); err != nil {
		t.Fatalf("Decode of the unedited layout: %v", err)
	}
	for _, c := range badLayouts {
		_, err := Decode(layoutPayload(c.edit))
		if !errors.Is(err, snapfmt.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode = %v, want ErrCorrupt containing %q", c.name, err, c.want)
		}
	}
}

// TestFoldMatchesFreeze holds the folds to Freeze's layout over random
// graphs with 1, 4 and 120 relations, self-loops and two hub entities:
// after every edge fold the adjacency equals newAdjacency of the triples,
// allocated at its length, and after every name fold the name index
// equals nameIndex of the names. Save and Load then give back that
// adjacency, name index and triple order.
func TestFoldMatchesFreeze(t *testing.T) {
	for _, nRel := range []int{1, 4, 120} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(nRel)))
			g := NewGraph()
			for r := 0; r < nRel; r++ {
				g.AddRelation(fmt.Sprintf("r%d", r))
			}
			addEntity := func() { g.AddEntity(fmt.Sprintf("n%d", rng.Intn(1000)), "t") }
			for i := 0; i < 200; i++ {
				addEntity()
			}
			edge := func() (EntityID, RelationID, EntityID) {
				n := g.NumEntities()
				h, tl := EntityID(rng.Intn(n)), EntityID(rng.Intn(n))
				switch rng.Intn(8) {
				case 0:
					h = EntityID(rng.Intn(2)) // hubs: entities 0 and 1
				case 1, 2:
					tl = EntityID(rng.Intn(2))
				case 3:
					tl = h
				}
				return h, RelationID(rng.Intn(nRel)), tl
			}
			for i := 0; i < 600; i++ {
				g.MustAddTriple(edge())
			}
			g.Freeze()

			var edgeFolds, nameFolds int
			for step := 0; step < 4000 && (edgeFolds < 4 || nameFolds < 4); step++ {
				overlay, names := g.overlayIDs, len(g.nameMap)
				if rng.Intn(4) == 0 {
					addEntity()
				} else if err := g.InsertTripleDynamic(edge()); err != nil {
					t.Fatal(err)
				}
				if g.overlayIDs < overlay {
					edgeFolds++
					wantEdges(t, fmt.Sprintf("%d relations, seed %d, fold %d", nRel, seed, edgeFolds), g, g)
				}
				if len(g.nameMap) < names {
					nameFolds++
					if want := nameIndex(g.names); !slices.Equal(g.byName, want) {
						t.Fatalf("%d relations, seed %d, name fold %d: byName = %v, want %v", nRel, seed, nameFolds, g.byName, want)
					}
				}
			}
			if edgeFolds < 4 || nameFolds < 4 {
				t.Fatalf("%d relations, seed %d: %d edge folds, %d name folds; want 4 each", nRel, seed, edgeFolds, nameFolds)
			}

			var buf bytes.Buffer
			if err := g.Save(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(&buf)
			if err != nil {
				t.Fatal(err)
			}
			wantEdges(t, fmt.Sprintf("%d relations, seed %d, loaded", nRel, seed), loaded, g)
			if want := nameIndex(g.names); !slices.Equal(loaded.byName, want) {
				t.Fatalf("%d relations, seed %d: loaded byName = %v, want %v", nRel, seed, loaded.byName, want)
			}
			if !slices.Equal(loaded.Triples(), g.Triples()) {
				t.Fatalf("%d relations, seed %d: Load changed the triple order", nRel, seed)
			}
		}
	}
}

// wantEdges fails unless got's adjacency is what Freeze lays out from
// src's triples, with no spare capacity.
func wantEdges(t *testing.T, stage string, got, src *Graph) {
	t.Helper()
	for _, dir := range []struct {
		a      *adjacency
		byTail bool
	}{{&got.out, false}, {&got.in, true}} {
		want := newAdjacency(src.NumEntities(), src.Triples(), dir.byTail)
		a := dir.a
		if !slices.Equal(a.start, want.start) || !slices.Equal(a.runs, want.runs) || !slices.Equal(a.ids, want.ids) {
			t.Fatalf("%s: adjacency (by tail %v) differs from newAdjacency's", stage, dir.byTail)
		}
		if cap(a.runs) != len(a.runs) || cap(a.ids) != len(a.ids) {
			t.Fatalf("%s: adjacency (by tail %v) has spare capacity", stage, dir.byTail)
		}
	}
}
