// Package arenaescape keeps slab-arena node pointers inside the scope
// that owns them. An rtree *node is pointer-stable for the life of its
// tree (slabs are never reallocated, and records are never recycled), but
// not beyond, and its meaning is not fixed even within it: a crack turns
// the pending record it splits into an internal node, an Insert can turn a
// leaf back into a pending element, and a reload drops the whole arena. A
// *node stored anywhere that outlives the index-lock scope — a
// package-level variable, a channel, a structure shared with a goroutine,
// a return value crossing the package API — silently describes a node that
// is no longer what it was, or no longer in the tree, the next time the
// tree cracks or reloads.
//
// The analyzer identifies arena record types structurally: a struct type
// with an alloc method is an arena, and the element type of each of its
// slab fields (slices of T, T a struct declared in the same package) is a
// record type — in rtree the node records and, in their own slab beside them, the
// leaf page headers node.leaf points at. It flags four escape sinks for
// values whose type contains *record:
//
//  1. assignment into a package-level variable (or a field of one);
//  2. a channel send;
//  3. capture by a function literal launched with `go`;
//  4. a return from an exported function or method.
//
// The record type (rtree.node) is unexported, so no other package can
// name it, and sink 4 flags any exported return that would hand one out:
// the rule only has to hold inside the package that owns the arena.
package arenaescape

import (
	"go/ast"
	"go/types"

	"vkgraph/internal/analysis"
)

// Analyzer flags arena record pointers escaping their lock/reset scope.
var Analyzer = &analysis.Analyzer{
	Name: "arenaescape",
	Doc:  "slab-arena node pointers must not be stored anywhere that outlives the index lock scope or an arena reset",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	records := recordTypes(pass)
	if len(records) == 0 {
		return nil
	}
	escapes := func(t types.Type) bool { return containsRecord(t, records, 0) }

	// Package-level vars of the package itself (assignment targets).
	globals := make(map[*types.Var]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok {
			globals[v] = true
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, isFunc := decl.(*ast.FuncDecl)
			if isFunc && fd.Body != nil {
				checkReturns(pass, fd, escapes)
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						root := rootIdent(lhs)
						if root == nil {
							continue
						}
						v, ok := pass.TypesInfo.Uses[root].(*types.Var)
						if !ok || !globals[v] {
							continue
						}
						var rhs ast.Expr
						if len(n.Rhs) == len(n.Lhs) {
							rhs = n.Rhs[i]
						} else if len(n.Rhs) == 1 {
							rhs = n.Rhs[0]
						}
						if rhs == nil {
							continue
						}
						if tv, ok := pass.TypesInfo.Types[rhs]; ok && escapes(tv.Type) {
							pass.Reportf(n.Pos(), "arena record pointer stored in package-level %s: arena nodes do not outlive their tree's lock scope or arena reset", v.Name())
						}
					}
				case *ast.SendStmt:
					if tv, ok := pass.TypesInfo.Types[n.Value]; ok && escapes(tv.Type) {
						pass.Reportf(n.Pos(), "arena record pointer sent on a channel: the receiver may outlive the index lock scope that made the pointer valid")
					}
				case *ast.GoStmt:
					checkGoCapture(pass, n, escapes)
				}
				return true
			})
		}
	}
	return nil
}

// recordTypes finds the package's arena record types by shape: the slab
// element types of a struct with an alloc method — a slice field, of any
// depth, of a struct type declared in the package. A slab of another
// package's type (rtree's statistics slots are sync/atomic Pointers) holds
// no records.
func recordTypes(pass *analysis.Pass) map[*types.Named]bool {
	records := make(map[*types.Named]bool)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok || !hasAlloc(named) {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			for {
				sl, ok := ft.(*types.Slice)
				if !ok {
					break
				}
				ft = sl.Elem()
			}
			if rn, ok := ft.(*types.Named); ok && rn.Obj().Pkg() == pass.Pkg {
				if _, isStruct := rn.Underlying().(*types.Struct); isStruct {
					records[rn] = true
				}
			}
		}
	}
	return records
}

// hasAlloc reports whether named declares an alloc (or Alloc) method.
func hasAlloc(named *types.Named) bool {
	for i := 0; i < named.NumMethods(); i++ {
		if name := named.Method(i).Name(); name == "alloc" || name == "Alloc" {
			return true
		}
	}
	return false
}

// containsRecord reports whether t is a record pointer or a direct
// container of one: *record, []*record, map[...]*record, chan *record,
// [N]*record, and shallow nestings thereof. Named struct types are NOT
// traversed: a struct holding node pointers internally (Tree, nodeArena)
// is the arena's own machinery, and flagging every value of such a type
// would indict the index itself. What escapes scope is the bare pointer
// changing hands. (The walk frontier holds none: it names nodes by arena
// index.)
func containsRecord(t types.Type, records map[*types.Named]bool, depth int) bool {
	if depth > 3 {
		return false
	}
	switch t := t.(type) {
	case *types.Pointer:
		if named, ok := t.Elem().(*types.Named); ok && records[named] {
			return true
		}
		return false
	case *types.Slice:
		return containsRecord(t.Elem(), records, depth+1)
	case *types.Array:
		return containsRecord(t.Elem(), records, depth+1)
	case *types.Map:
		return containsRecord(t.Key(), records, depth+1) || containsRecord(t.Elem(), records, depth+1)
	case *types.Chan:
		return containsRecord(t.Elem(), records, depth+1)
	}
	return false
}

// checkReturns flags exported functions/methods returning record
// pointers: the caller is outside the package and cannot be expected to
// respect arena lifetimes it cannot see.
func checkReturns(pass *analysis.Pass, fd *ast.FuncDecl, escapes func(types.Type) bool) {
	if !fd.Name.IsExported() || fd.Type.Results == nil {
		return
	}
	for _, res := range fd.Type.Results.List {
		if tv, ok := pass.TypesInfo.Types[res.Type]; ok && escapes(tv.Type) {
			pass.Reportf(res.Type.Pos(), "exported %s returns an arena record pointer across the package boundary; return the payload (ids, coordinates) instead", fd.Name.Name)
		}
	}
}

// checkGoCapture flags `go func(){ ... nd ... }()` where the literal
// captures a record-pointer variable from the enclosing scope: the
// goroutine runs after the spawning section released its locks.
func checkGoCapture(pass *analysis.Pass, g *ast.GoStmt, escapes func(types.Type) bool) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	// Identifiers declared inside the literal (params, locals) are not
	// captures.
	declared := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if ident, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[ident]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		ident, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[ident].(*types.Var)
		if !ok || declared[v] || v.IsField() {
			return true
		}
		if escapes(v.Type()) {
			pass.Reportf(ident.Pos(), "goroutine captures arena record pointer %s: it runs after the spawning section's locks are released", v.Name())
			reported = true
		}
		return true
	})
}

// rootIdent finds the base identifier of an assignment target
// (x, x.f, x[i].f → x).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}
