package main

import (
	"fmt"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg"
	"vkgraph/internal/kg/kggen"
	"vkgraph/vkg"
)

// datasetSeed fixes the two graphs, their embeddings and the JL projection.
// The data set is the same in every run; -seed draws the traffic and the
// probes. Were the graphs drawn from -seed too, the geometry of the clusters
// would move every cost by more than any bound here: on synth-large,
// throughput differs by a fifth between two graph seeds and by a hundredth
// between two runs of one.
const datasetSeed = 7

// movieGraph is movie-full: the generated MovieLens-like graph with the
// TransE embedding trained on it.
type movieGraph struct {
	cfg   kggen.MovieConfig
	KG    *kg.Graph
	Model *embedding.Model
}

// genMovie generates the graph and trains the embedding, both from seed.
// One SGD worker keeps training deterministic.
func genMovie(cfg kggen.MovieConfig, epochs int, seed int64) (*movieGraph, error) {
	cfg.Seed = seed
	g := kggen.Movie(cfg)
	ec := embedding.DefaultConfig()
	ec.Dim, ec.Epochs, ec.LearningRate, ec.Workers, ec.Seed = 50, epochs, 0.02, 1, seed
	tr, err := embedding.Train(g, ec)
	if err != nil {
		return nil, fmt.Errorf("bench: training movie embedding: %w", err)
	}
	return &movieGraph{cfg: cfg, KG: g, Model: tr.Model}, nil
}

// regenerate returns an unmutated copy: the graph is regenerated (the generator
// is deterministic) and the model copied, because InsertEntity grows both.
func (m *movieGraph) regenerate() *movieGraph {
	cp := *m.Model
	cp.Entities = append([]float64(nil), m.Model.Entities...)
	cp.Rels = append([]float64(nil), m.Model.Rels...)
	return &movieGraph{cfg: m.cfg, KG: kggen.Movie(m.cfg), Model: &cp}
}

// build indexes the graph with the product defaults: no shard count and no
// packed-coordinate switch is passed, so the benchmark measures what ships.
func (m *movieGraph) build() (*vkg.VKG, error) {
	return vkg.Build(vkg.WrapGraph(m.KG), vkg.WithPretrainedModel(m.Model), vkg.WithSeed(datasetSeed), vkg.WithAttributes(aggAttr))
}

func (s *synthGraph) build() (*vkg.VKG, error) {
	return vkg.Build(s.G, vkg.WithPretrainedModel(s.Model), vkg.WithSeed(datasetSeed), vkg.WithAttributes(aggAttr))
}
