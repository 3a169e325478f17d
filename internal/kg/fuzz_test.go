package kg

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"vkgraph/internal/snapfmt"
)

// FuzzGraphLoad drives Decode over arbitrary payloads, below the checksum
// that guards them in a file or snapshot. It must never panic, and every
// failure wraps snapfmt.ErrCorrupt; a graph it accepts must be laid out
// consistently (every triple found in both directions, every list strictly
// increasing, no triple twice), survive Save and Load unchanged, and
// encode back to the payload it came from. The seeds include one payload
// per layout check Decode makes, each breaking that check alone.
func FuzzGraphLoad(f *testing.F) {
	g := NewGraph()
	a, b := g.AddEntity("a", "t"), g.AddEntity("b", "u")
	g.AddEntity("a", "t")
	r := g.AddRelation("r")
	g.MustAddTriple(a, r, b)
	g.MustAddTriple(b, r, b)
	g.SetAttr("x", b, 1)
	var saved snapfmt.Writer
	g.Encode(&saved)
	f.Add(saved.Bytes())
	f.Add(saved.Bytes()[:len(saved.Bytes())/2])
	f.Add(smallPayload(nil))
	f.Add([]byte{})
	for _, c := range badLayouts {
		f.Add(layoutPayload(c.edit))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Decode(data)
		if err != nil {
			if !errors.Is(err, snapfmt.ErrCorrupt) {
				t.Fatalf("Decode = %v, want an error wrapping ErrCorrupt", err)
			}
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
		// The payload is canonical: Decode accepts one payload per graph.
		var again snapfmt.Writer
		g.Encode(&again)
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatal("Decode and Encode changed the payload")
		}
	})
}
