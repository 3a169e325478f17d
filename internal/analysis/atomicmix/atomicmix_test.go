package atomicmix_test

import (
	"testing"

	"vkgraph/internal/analysis/analysistest"
	"vkgraph/internal/analysis/atomicmix"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", atomicmix.Analyzer, "atomlib")
}
