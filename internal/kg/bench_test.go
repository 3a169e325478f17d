package kg_test

import (
	"math/rand"
	"testing"

	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/snapfmt"
)

// BenchmarkGraphDecode decodes the full movie graph's payload (12,420
// entities, 131k triples): the graph's share of a restart.
func BenchmarkGraphDecode(b *testing.B) {
	var w snapfmt.Writer
	kggen.Movie(kggen.DefaultMovieConfig()).Encode(&w)
	b.SetBytes(int64(len(w.Bytes())))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kg.Decode(w.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFoldEdges folds a full edge overlay into the full movie graph:
// random user-likes-movie facts added after Freeze, one short of the
// insert that would fold them. This is the pause a fold costs under the
// engine's write lock, and what replaying a log of such facts repeats.
func BenchmarkFoldEdges(b *testing.B) {
	cfg := kggen.DefaultMovieConfig()
	// insert adds random user-likes-movie facts to g until it has added n
	// or one folds, and returns the index of the last one it added.
	insert := func(g *kg.Graph, n int) int {
		rng := rand.New(rand.NewSource(1))
		likes, _ := g.RelationByName("likes")
		for i := 0; i != n; i++ {
			h := kg.EntityID(rng.Intn(cfg.Users))
			t := kg.EntityID(cfg.Users + rng.Intn(cfg.Movies))
			before := g.OverlayIDs()
			if err := g.InsertTripleDynamic(h, likes, t); err != nil {
				b.Fatal(err)
			}
			if g.OverlayIDs() < before {
				return i
			}
		}
		return n
	}
	// The first run finds the insert that folds; the second stops short.
	n := insert(kggen.Movie(cfg), -1)
	g := kggen.Movie(cfg)
	insert(g, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.RefoldEdges()
	}
	b.ReportMetric(float64(g.OverlayIDs()), "overlay-ids")
}
