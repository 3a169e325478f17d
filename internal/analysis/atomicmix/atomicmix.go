// Package atomicmix flags plain use of a sync/atomic wrapper value — the
// race class `go test -race` only catches when the losing interleaving
// actually fires during the run. The WAL armed flag is the canonical
// in-tree example: walAppend* methods check `armed.Load()` as a lock-free
// fast path, so a plain `w.armed = atomic.Bool{}` write anywhere would be
// a silent data race with every mutation on the serving path. `go vet`'s
// copylocks pass catches a wrapper copied out (`x := w.armed`), but not
// one assigned over.
//
// A field or variable of an atomic wrapper type (atomic.Bool,
// atomic.Int64, atomic.Uint64, atomic.Pointer, ...) may only be used as a
// method-call receiver or have its address taken. Any other use copies
// the value out from under concurrent writers (and breaks the wrapper's
// no-copy contract): assignment, comparison, passing by value, struct
// literal fields.
package atomicmix

import (
	"go/ast"
	"go/token"
	"go/types"

	"vkgraph/internal/analysis"
)

// Analyzer detects plain access to atomic wrapper values.
var Analyzer = &analysis.Analyzer{
	Name: "atomicmix",
	Doc:  "a sync/atomic wrapper value must only be used through its methods or by address",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	pm := analysis.NewParentMap(pass.Files)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			ident, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := pass.TypesInfo.Uses[ident].(*types.Var)
			if !ok {
				return true
			}
			if isAtomicWrapper(obj.Type()) && !isReceiverOrAddr(pass, pm, ident) {
				pass.Reportf(ident.Pos(),
					"%s %s copied as a plain value; %s values must only be used through their Load/Store/... methods",
					obj.Type().String(), obj.Name(), obj.Type().String())
			}
			return true
		})
	}
	return nil
}

// isAtomicWrapper reports whether t is one of sync/atomic's typed
// wrappers (Bool, Int32, Int64, Uint32, Uint64, Uintptr, Pointer, Value).
func isAtomicWrapper(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// isReceiverOrAddr reports whether the use of ident (as the terminal
// selector of an atomic-typed value) is sanctioned: the receiver of a
// method call (x.armed.Load()), an operand of &, or itself part of a
// longer selector whose terminal is a method (the field access inside
// x.wal.armed.Load()).
func isReceiverOrAddr(pass *analysis.Pass, pm *analysis.ParentMap, ident *ast.Ident) bool {
	// Climb out of the selector chain the ident terminates.
	var expr ast.Expr = ident
	node := pm.Parent(ident)
	for {
		sel, ok := node.(*ast.SelectorExpr)
		if !ok {
			break
		}
		if sel.Sel == ident || sel.X == expr {
			// Selecting from the atomic value: x.armed.Load — the outer
			// selector's Sel is a method of the wrapper → sanctioned; a
			// field of atomic.Value etc. does not exist, so any non-method
			// selection falls through to the checks below.
			if sel.Sel != ident {
				if fn, ok := pass.ObjectOf(sel.Sel).(*types.Func); ok && fn != nil {
					return true
				}
			}
			expr = sel
			node = pm.Parent(sel)
			continue
		}
		break
	}
	switch parent := node.(type) {
	case *ast.UnaryExpr:
		return parent.Op == token.AND
	case *ast.ParenExpr:
		// Conservative: (&x.f) style — treat parens transparently.
		if un, ok := pm.Parent(parent).(*ast.UnaryExpr); ok {
			return un.Op == token.AND
		}
	}
	return false
}
