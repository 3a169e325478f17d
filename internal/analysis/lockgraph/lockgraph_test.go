package lockgraph_test

import (
	"testing"

	"vkgraph/internal/analysis/analysistest"
	"vkgraph/internal/analysis/lockgraph"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", lockgraph.Analyzer, "cyclic", "lockuser")
}

// TestGoldenBlocking runs the blocking-in-write-section corpus: each
// // want in internal/core is a blocking operation made while a write
// lock is held.
func TestGoldenBlocking(t *testing.T) {
	analysistest.Run(t, "testdata", lockgraph.Analyzer, "internal/core")
}
