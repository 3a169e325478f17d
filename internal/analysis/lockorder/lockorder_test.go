package lockorder_test

import (
	"testing"

	"vkgraph/internal/analysis/analysistest"
	"vkgraph/internal/analysis/lockorder"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "internal/core")
}
