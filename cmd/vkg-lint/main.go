// Command vkg-lint runs the project's custom static-analysis suite
// (internal/analysis/...): the machine-checked versions of the lock,
// arena, error-handling and context-propagation invariants DESIGN.md
// states in prose that neither `go vet` nor the tests would catch.
//
// Usage:
//
//	go run ./cmd/vkg-lint ./...                 # what CI runs
//	go run ./cmd/vkg-lint -lockgraph-dump ./... # also print the lock graph
//	go run ./cmd/vkg-lint ./internal/serve/...  # a subtree; its dependencies
//	                                            # are analyzed quietly for facts
//
// Each finding is one `file:line:col: [analyzer] message` line on stdout.
// Test files are not linted. Exit status: 0 clean, 1 findings, 2
// operational error.
//
// The upstream nilness and lostcancel analyzers would normally ride along
// here via multichecker, but this module builds offline with no
// dependencies, so x/tools is unavailable. Neither needs an in-tree copy:
// lostcancel runs in `go vet ./...`, and nilness-class bugs are covered by
// staticcheck; both are blocking steps of the same CI lint job.
package main

import (
	"os"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/arenaescape"
	"vkgraph/internal/analysis/atomicmix"
	"vkgraph/internal/analysis/checker"
	"vkgraph/internal/analysis/ctxpropagate"
	"vkgraph/internal/analysis/lockgraph"
	"vkgraph/internal/analysis/lockorder"
	"vkgraph/internal/analysis/sealedps"
	"vkgraph/internal/analysis/sentinelerr"
)

func main() {
	suite := []*analysis.Analyzer{
		lockorder.Analyzer,
		lockgraph.Analyzer,
		atomicmix.Analyzer,
		arenaescape.Analyzer,
		sentinelerr.Analyzer,
		ctxpropagate.Analyzer,
		sealedps.Analyzer,
	}
	os.Exit(checker.Main(suite))
}
