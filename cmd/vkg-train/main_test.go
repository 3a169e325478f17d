package main

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"vkgraph/internal/embedding"
	"vkgraph/internal/kg/kggen"
	"vkgraph/internal/snapfmt"
	"vkgraph/vkg"
)

// TestDefaultsTrainBuildsModel: vkg-train with no hyperparameter flags
// writes, byte for byte, the model vkg.Build trains on the same graph.
func TestDefaultsTrainBuildsModel(t *testing.T) {
	dir := t.TempDir()
	graphPath, modelPath := filepath.Join(dir, "movie.graph"), filepath.Join(dir, "movie.model")
	if err := kggen.Movie(kggen.TinyMovieConfig()).SaveFile(graphPath); err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	if code := run([]string{"-graph", graphPath, "-out", modelPath}, io.Discard, &stderr); code != 0 {
		t.Fatalf("vkg-train exited %d: %s", code, stderr.String())
	}
	trained, err := embedding.LoadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	v, err := vkg.Build(vkg.WrapGraph(kggen.Movie(kggen.TinyMovieConfig())))
	if err != nil {
		t.Fatal(err)
	}
	var got, want snapfmt.Writer
	trained.Encode(&got)
	v.Engine().Model().Encode(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("vkg-train's default model differs from the one vkg.Build trains")
	}
}
