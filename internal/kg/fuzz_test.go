package kg

import (
	"bytes"
	"encoding/gob"
	"io"
	"slices"
	"testing"
)

func gobEncode(w io.Writer, wire gobGraph) error { return gob.NewEncoder(w).Encode(wire) }

// FuzzGraphLoad drives Load over arbitrary bytes. It must never panic; a
// graph it accepts must be laid out consistently (every triple found in both
// directions, every list strictly increasing, no triple twice) and survive
// Save and Load unchanged.
func FuzzGraphLoad(f *testing.F) {
	g := NewGraph()
	a, b := g.AddEntity("a", "t"), g.AddEntity("b", "u")
	g.AddEntity("a", "t")
	r := g.AddRelation("r")
	g.MustAddTriple(a, r, b)
	g.MustAddTriple(b, r, b)
	g.SetAttr("x", b, 1)
	var saved bytes.Buffer
	if err := g.Save(&saved); err != nil {
		f.Fatal(err)
	}
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:saved.Len()/2])
	var repeats bytes.Buffer
	if err := gobEncode(&repeats, gobGraph{
		Entities:  []Entity{{0, "a", "t"}, {1, "b", "t"}},
		Relations: []Relation{{0, "r"}},
		Triples:   []Triple{{0, 0, 1}, {1, 0, 1}, {0, 0, 1}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(repeats.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		seen := map[Triple]bool{}
		outKeys, inKeys := map[edgeKey]bool{}, map[edgeKey]bool{}
		for _, tr := range g.Triples() {
			if seen[tr] {
				t.Fatalf("triple %v kept twice", tr)
			}
			seen[tr] = true
			outKeys[edgeKey{tr.H, tr.R}], inKeys[edgeKey{tr.T, tr.R}] = true, true
			if !g.HasEdge(tr.H, tr.R, tr.T) || !slices.Contains(g.Heads(tr.T, tr.R), tr.H) {
				t.Fatalf("triple %v missing from the adjacency", tr)
			}
		}
		n := 0
		for _, dir := range []struct {
			keys map[edgeKey]bool
			list func(EntityID, RelationID) []EntityID
		}{{outKeys, g.Tails}, {inKeys, g.Heads}} {
			for k := range dir.keys {
				l := dir.list(k.E, k.R)
				n += len(l)
				for i := 1; i < len(l); i++ {
					if l[i-1] >= l[i] {
						t.Fatalf("list of %v not strictly increasing: %v", k, l)
					}
				}
			}
		}
		for e := EntityID(0); int(e) < g.NumEntities(); e++ {
			_ = g.Entity(e)
		}
		if n != 2*g.NumTriples() {
			t.Fatalf("adjacency holds %d ids for %d triples", n, g.NumTriples())
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reloading a saved graph: %v", err)
		}
		if !slices.Equal(back.Triples(), g.Triples()) || back.NumEntities() != g.NumEntities() {
			t.Fatal("Save and Load changed the graph")
		}
	})
}
