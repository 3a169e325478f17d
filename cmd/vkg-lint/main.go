// Command vkg-lint runs the project's custom static-analysis suite
// (internal/analysis/...), five analyzers: the machine-checked versions of
// the lock, atomic, arena, error-handling and context-propagation
// invariants DESIGN.md states in prose that neither the compiler, `go vet`
// nor the tests would catch. One analyzer, lockgraph, holds both lock rules:
// the program-wide lock order and no blocking work inside a
// write-critical section on the query path.
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
	"vkgraph/internal/analysis/sentinelerr"
)

func main() {
	suite := []*analysis.Analyzer{
		lockgraph.Analyzer,
		atomicmix.Analyzer,
		arenaescape.Analyzer,
		sentinelerr.Analyzer,
		ctxpropagate.Analyzer,
	}
	os.Exit(checker.Main(suite))
}
