package experiments

import (
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/snapfmt"
)

// TestGobCacheFilesAreMisses: graph and model files written before they
// had a header of their own (bare gob streams) are refused, so the disk
// cache treats them as a miss and never misreads them; the files written
// in their place load.
func TestGobCacheFilesAreMisses(t *testing.T) {
	t.Setenv("VKG_CACHE", t.TempDir())
	const key = "movie-gob"
	type gobEntity struct {
		ID         int32
		Name, Type string
	}
	type gobRelation struct {
		ID   int32
		Name string
	}
	type gobGraph struct {
		Entities  []gobEntity
		Relations []gobRelation
		Triples   []struct{ H, R, T int32 }
		Attrs     map[string][]float64
	}
	for name, v := range map[string]any{
		key + ".graph": gobGraph{Entities: []gobEntity{{0, "a", "t"}}, Relations: []gobRelation{{0, "r"}}},
		key + ".model": embedding.Model{Dim: 1, Entities: []float64{1}, Rels: []float64{1}},
	} {
		f, err := os.Create(filepath.Join(cacheDir(), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := gob.NewEncoder(f).Encode(v); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := loadFromDisk(key); !errors.Is(err, snapfmt.ErrCorrupt) {
		t.Fatalf("loadFromDisk of gob files = %v, want a miss wrapping ErrCorrupt", err)
	}

	g := kggen.Movie(kggen.TinyMovieConfig())
	cfg := embedding.DefaultConfig()
	cfg.Dim, cfg.Epochs = 4, 1
	tr, err := embedding.Train(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveToDisk(key, &Dataset{G: g, M: tr.Model}); err != nil {
		t.Fatal(err)
	}
	ds, err := loadFromDisk(key)
	if err != nil {
		t.Fatal(err)
	}
	if ds.G.NumTriples() != g.NumTriples() || ds.M.NumEntities() != g.NumEntities() {
		t.Fatal("the rewritten cache files load to another dataset")
	}
}
