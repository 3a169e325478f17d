// Package sealedps enforces the sealed-PointSet contract (internal/rtree):
// the backing layout of rtree.PointSet — the row-major coords block and the
// attribute columns — and the coordinate rows of a leaf page (leafPage.xy,
// the copy of a leaf's points that leaf scans read) are private to
// pointset.go. Everything else, including the rest of the rtree package,
// must go through the accessor API (At, Coord, SqDistTo, GatherSqDists,
// AttrValue, ... and, inside rtree, the two scans named appendWithin: the
// page kernel of a leaf and the id scan of a pending element).
//
// Go's exported/unexported boundary cannot express "private to one file of
// the package", so inside rtree the seal is only a convention — and a
// load-bearing one: a page answers for its points only because every write
// to it (fill, add, remove) copies the exact row, and the page kernel sums
// a distance in SqDistTo's order so the two are bit-identical. A stray
// `ps.coords[...]` or `pg.xy[...]` in a kernel elsewhere in the package
// would compile, work, and silently pin the layout again. This analyzer
// turns the convention back into a build error.
package sealedps

import (
	"go/ast"
	"go/types"
	"path/filepath"

	"vkgraph/internal/analysis"
)

// Analyzer rejects direct PointSet layout access outside its home files.
var Analyzer = &analysis.Analyzer{
	Name: "sealedps",
	Doc:  "reject direct access to rtree.PointSet backing fields and leaf page rows outside pointset.go",
	Run:  run,
}

// layoutFields are the fields that constitute the private layout, by the
// sealed type that declares them.
var layoutFields = map[string]map[string]bool{
	"PointSet": {"coords": true, "attrNames": true, "attrCols": true},
	"leafPage": {"xy": true},
}

// homeFile is the file allowed to touch the layout.
const homeFile = "pointset.go"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if filepath.Base(pass.Fset.Position(file.Pos()).Filename) == homeFile {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			t, ok := pass.TypesInfo.Types[sel.X]
			if !ok {
				return true
			}
			owner := sealedType(t.Type)
			if !layoutFields[owner][sel.Sel.Name] {
				return true
			}
			// Confirm the selector resolves to the field, not to a local
			// method or shadowed name.
			obj := pass.ObjectOf(sel)
			if _, isField := obj.(*types.Var); !isField {
				return true
			}
			pass.Reportf(sel.Pos(), "direct access to %s.%s outside pointset.go: the layout is sealed — use the accessor API (At, Coord, SqDistTo, GatherSqDists, AttrValue; leafPage.appendWithin for a leaf scan, PointSet.appendWithin for a pending element's)", owner, sel.Sel.Name)
			return true
		})
	}
	return nil
}

// sealedType returns the name of t (after deref) when it is a named type
// of package rtree, matching by package name so the analyzer works against
// the real package and the analysistest fake alike; "" otherwise.
func sealedType(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Name() != "rtree" {
		return ""
	}
	return obj.Name()
}
