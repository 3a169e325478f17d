package arenaescape

import (
	"slices"
	"testing"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/loader"
)

// TestRtreeRecords runs the record-type detection on the real index
// package: it must find the node records and the leaf pages beside them
// and nothing else. A rule that finds no records reports nothing, so a
// change to the arena's shape that the rule no longer matches would
// silently switch the analyzer off for rtree; this test catches that.
func TestRtreeRecords(t *testing.T) {
	const path = "vkgraph/internal/rtree"
	pr, err := loader.ListProgram("", path)
	if err != nil {
		t.Fatal(err)
	}
	var pkg *loader.Package
	for _, lp := range pr.Listed {
		if lp.Standard {
			continue
		}
		if pkg, err = pr.CheckListed(lp); err != nil {
			t.Fatal(err)
		}
	}
	if pkg == nil || pkg.PkgPath != path {
		t.Fatalf("loaded no %s", path)
	}
	var got []string
	for rn := range recordTypes(&analysis.Pass{Pkg: pkg.Types}) {
		got = append(got, rn.Obj().Name())
	}
	slices.Sort(got)
	if want := []string{"leafPage", "node"}; !slices.Equal(got, want) {
		t.Fatalf("record types of %s = %v, want %v", path, got, want)
	}
}
