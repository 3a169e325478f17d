// Comparison: a miniature of the paper's Figure 3 — the same query sequence
// answered by the no-index scan, the bulk-loaded R-tree, and the cracking
// index, printing build time and the evolution of per-query latency. Shows
// the paper's headline behaviour: cracking has no offline build, an
// expensive first query, and a steady state at (or below) the bulk-loaded
// index's query time with a fraction of its nodes.
//
// Run with: go run ./examples/comparison
package main

import (
	"fmt"
	"log"
	"time"

	"vkgraph/internal/kg/kggen"
	"vkgraph/vkg"
)

func main() {
	cfg := kggen.TinyFreebaseConfig()
	cfg.Entities, cfg.Edges, cfg.RelationTypes = 4000, 40000, 30
	fmt.Println("generating Freebase-like knowledge graph...")
	graph := kggen.Freebase(cfg)
	g := vkg.WrapGraph(graph)
	fmt.Printf("  %d entities, %d relation types, %d triples\n\n",
		g.NumEntities(), graph.NumRelations(), g.NumTriples())

	// One embedding shared across modes via pretrained-model reuse keeps
	// the comparison apples-to-apples.
	base, err := vkg.Build(g, vkg.WithSeed(3), vkg.WithEmbedding(vkg.EmbeddingParams{Dim: 50, Epochs: 15}))
	if err != nil {
		log.Fatal(err)
	}

	// A fixed query workload over random known (entity, relation) pairs.
	triples := graph.Triples()
	const nq = 40
	type q struct {
		e vkg.EntityID
		r vkg.RelationID
	}
	var queries []q
	for i := 0; len(queries) < nq; i += 37 {
		tr := triples[(i*997)%len(triples)]
		queries = append(queries, q{e: tr.H, r: tr.R})
	}

	for _, mc := range []struct {
		name string
		mode vkg.IndexMode
	}{
		{"no-index", vkg.ModeNoIndex},
		{"bulk-loaded", vkg.ModeBulk},
		{"cracking", vkg.ModeCrack},
	} {
		start := time.Now()
		v, err := vkg.Build(g, vkg.WithSeed(3), vkg.WithIndexMode(mc.mode), vkg.WithModelFrom(base))
		if err != nil {
			log.Fatal(err)
		}
		buildTime := time.Since(start)

		var q1, q6, rest time.Duration
		for i, qq := range queries {
			start := time.Now()
			if _, err := v.TopKTails(qq.e, qq.r, 10); err != nil {
				log.Fatal(err)
			}
			el := time.Since(start)
			switch {
			case i == 0:
				q1 = el
			case i == 5:
				q6 = el
			case i >= 16:
				rest += el
			}
		}
		avg := rest / time.Duration(len(queries)-16)
		st := v.IndexStats()
		fmt.Printf("%-18s build %-10v q1 %-10v q6 %-10v steady-avg %-10v nodes %d\n",
			mc.name, buildTime.Round(time.Microsecond), q1.Round(time.Microsecond),
			q6.Round(time.Microsecond), avg.Round(time.Microsecond), st.TotalNodes)
	}
	fmt.Println("\n(cracking: no offline build, first query pays the setup, steady state ≈ bulk;")
	fmt.Println(" node count a small fraction of the bulk-loaded tree)")
}
