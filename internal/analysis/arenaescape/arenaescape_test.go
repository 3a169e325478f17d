package arenaescape_test

import (
	"testing"

	"vkgraph/internal/analysis/analysistest"
	"vkgraph/internal/analysis/arenaescape"
)

func TestGolden(t *testing.T) {
	analysistest.Run(t, "testdata", arenaescape.Analyzer, "arena")
}
