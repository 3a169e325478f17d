// Package sealedps enforces the sealed-PointSet contract (internal/rtree):
// the backing layout of rtree.PointSet — the row-major coords block, the
// packed float32 mirror, and the attribute columns — is private to
// pointset.go and packed.go. Everything else, including the rest of the
// rtree package, must go through the accessor API (At, Coord, SqDistTo,
// GatherSqDists, AttrValue, ... and, inside rtree, the walk's leaf scan
// appendWithin).
//
// Go's exported/unexported boundary cannot express "private to two files
// of the package", so inside rtree the seal is only a convention — and a
// load-bearing one: the packed mirror is correct precisely because every
// write goes through AppendPoint (which updates both representations) and
// every read is either exact or re-ranked. A stray `ps.coords[...]` in a
// kernel elsewhere in the package would compile, work, and silently pin
// the layout again. This analyzer turns the convention back into a build
// error.
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
	Doc:  "reject direct access to rtree.PointSet backing fields outside pointset.go and packed.go",
	Run:  run,
}

// layoutFields are the PointSet fields that constitute the private layout.
var layoutFields = map[string]bool{
	"coords":    true,
	"packed":    true,
	"attrNames": true,
	"attrCols":  true,
}

// homeFiles are the files allowed to touch the layout.
var homeFiles = map[string]bool{
	"pointset.go": true,
	"packed.go":   true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if homeFiles[filepath.Base(pass.Fset.Position(file.Pos()).Filename)] {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !layoutFields[sel.Sel.Name] {
				return true
			}
			t, ok := pass.TypesInfo.Types[sel.X]
			if !ok || !isPointSet(t.Type) {
				return true
			}
			// Confirm the selector resolves to the field, not to a local
			// method or shadowed name.
			obj := pass.ObjectOf(sel)
			if _, isField := obj.(*types.Var); !isField {
				return true
			}
			pass.Reportf(sel.Pos(), "direct access to PointSet.%s outside pointset.go/packed.go: the layout is sealed — use the accessor API (At, Coord, SqDistTo, GatherSqDists, AttrValue; appendWithin for a walk's leaf scan)", sel.Sel.Name)
			return true
		})
	}
	return nil
}

// isPointSet reports whether t (after deref) is the named type
// rtree.PointSet, matching by package name so the analyzer works against
// the real package and the analysistest fake alike.
func isPointSet(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Name() == "rtree" && obj.Name() == "PointSet"
}
