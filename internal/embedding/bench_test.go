package embedding

import (
	"testing"

	"vkgraph/internal/kg/kggen"
)

// BenchmarkTrainEpoch trains one epoch on the full movie graph (12,420
// entities, 131,064 triples), where the model's rows outgrow the caches as
// they do in the benchmark's setup; on the tiny graph they all fit.
func BenchmarkTrainEpoch(b *testing.B) {
	g := kggen.Movie(kggen.DefaultMovieConfig())
	cfg := DefaultConfig()
	cfg.Dim = 50
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(g, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDissimilarity(b *testing.B) {
	g := kggen.Movie(kggen.TinyMovieConfig())
	cfg := DefaultConfig()
	cfg.Epochs = 2
	res, err := Train(g, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m := res.Model
	tr := g.Triples()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Dissimilarity(tr.H, tr.R, tr.T)
	}
}
