package lockgraph

import (
	"maps"
	"testing"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/checker"
	"vkgraph/internal/analysis/loader"
)

// TestCoreGraph runs the analyzer on the real engine package and pins the
// edges -lockgraph-dump prints for it. A rule that recognizes no
// lock records no edge and opens no section, so a refactor of the engine's
// locking that lockAcq no longer matches would switch both rules off for
// core in silence; this test catches that.
func TestCoreGraph(t *testing.T) {
	pr, err := loader.ListProgram("", "vkgraph/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	facts := analysis.NewFactStore()
	for _, lp := range pr.Listed {
		if lp.Standard {
			continue
		}
		pkg, err := pr.CheckListed(lp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checker.RunPackages(facts, []*analysis.Analyzer{Analyzer}, []*loader.Package{pkg}, true); err != nil {
			t.Fatal(err)
		}
	}
	edges := union(facts.FactsFor(Analyzer))

	// Self-edges take no part in cycle detection and are left out.
	got := make(map[[2]string]bool)
	for _, e := range edges {
		if e.From != e.To {
			got[[2]string{e.From, e.To}] = true
		}
	}
	want := map[[2]string]bool{
		{"core.Engine.mu", "core.lockedIndex.mu"}:   true,
		{"core.Engine.mu", "core.walState.mu"}:      true,
		{"core.lockedIndex.mu", "core.walState.mu"}: true,
	}
	if !maps.Equal(got, want) {
		t.Fatalf("core lock edges = %v, want %v", got, want)
	}
}
