// Package walappend enforces the durability contract PR 9 established:
// every structural index mutation must be written to the crack WAL under
// the lock that covers it, so a crash between snapshot and mutation never
// loses the change. The bug class it targets is exactly the one the
// dynamic-attribute fixes were: a new mutation path that compiles, works,
// and silently skips logging.
//
// The analysis is in two halves joined by facts:
//
//   - In an arena-owning package (one defining a slab-arena type — a
//     struct with a [][]record slab field and alloc/release methods, i.e.
//     rtree's nodeArena), any function that transitively calls alloc or
//     release, or writes a field through a *record pointer, is a
//     structural mutator. Exported mutators carry MutatorFact, so the
//     dependent package sees that Crack, Insert, Delete, NewBulkLoaded,
//     and Load mutate tree structure without reading their bodies.
//     A `// walappend:allow <reason>` doc-comment marker stops the
//     propagation: rtree's ensureRoot carries one (lazy root
//     materialization is deterministic at load and never logged), which
//     is what keeps Prepare and the read paths unmarked.
//
//   - In a WAL-owning package (one defining walAppend* methods — core),
//     every function that calls a mutator (imported fact or local
//     closure) is obligated to append: it must call a walAppend* method
//     while a write lock is held (lexically: after a .Lock() with no
//     intervening release). Obligations are discharged three ways:
//     a function that appends under its lock is done, and its callers owe
//     nothing further (finishQuery logs the crack, so the query surface
//     above it stays clean); a *Locked-named helper passes the obligation
//     to its callers (that naming convention is the package's own "caller
//     holds the lock and logs" contract); a `// walappend:allow <reason>`
//     marker excuses replay and snapshot-build paths (applyWALRecord
//     re-applies records that are already in the log; buildIndex and
//     LoadEngine construct state that the next snapshot captures
//     wholesale). Anything else that mutates without logging is a
//     diagnostic.
package walappend

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"vkgraph/internal/analysis"
)

// MutatorFact marks a function that (transitively) performs structural
// index mutation: arena alloc/release or a field write through an arena
// record pointer.
type MutatorFact struct {
	// Via names the mutation primitive or callee that made this function
	// a mutator, for diagnostics ("calls rtree.Crack").
	Via string
}

// AFact marks MutatorFact as a fact type.
func (*MutatorFact) AFact() {}

// allowMarker is the doc-comment escape hatch. It must come with a reason
// on the same line; the analyzer only checks presence, the reviewer checks
// the reason.
const allowMarker = "walappend:allow"

// Analyzer enforces append-under-lock for every structural mutation path.
var Analyzer = &analysis.Analyzer{
	Name:      "walappend",
	Doc:       "every structural index mutation must append its WAL record under the held write lock (or be explicitly allowlisted)",
	Run:       run,
	FactTypes: []analysis.Fact{new(MutatorFact)},
}

func run(pass *analysis.Pass) error {
	records := arenaRecordTypes(pass.Pkg)
	walOwner := definesWALAppend(pass)

	// Per-function in source order: what it mutates, whom it calls, and
	// whether it is allow-marked, *Locked-named, or self-discharging.
	type fnInfo struct {
		decl       *ast.FuncDecl
		obj        *types.Func
		via        string // first mutation primitive or mutator callee seen
		callees    map[*types.Func]bool
		allowed    bool
		discharged bool // appends its own WAL record under a held lock
	}
	var fns []*fnInfo
	byObj := make(map[*types.Func]*fnInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			info := &fnInfo{decl: fd, callees: make(map[*types.Func]bool)}
			info.obj, _ = pass.TypesInfo.Defs[fd.Name].(*types.Func)
			info.allowed = fd.Doc != nil && strings.Contains(fd.Doc.Text(), allowMarker)
			info.discharged = walOwner && appendsUnderLock(pass, fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if via, ok := arenaPrimitive(pass, n, records); ok && info.via == "" {
						info.via = via
					}
					if callee, ok := pass.ObjectOf(n.Fun).(*types.Func); ok && callee != nil {
						if callee.Pkg() == pass.Pkg {
							info.callees[callee] = true
						} else if pass.ImportObjectFact != nil && info.via == "" {
							var mf MutatorFact
							if pass.ImportObjectFact(callee, &mf) {
								info.via = "calls " + calleeName(callee)
							}
						}
					}
				case *ast.AssignStmt:
					if info.via == "" {
						if via, ok := recordFieldWrite(pass, n, records); ok {
							info.via = via
						}
					}
				}
				return true
			})
			fns = append(fns, info)
			if info.obj != nil {
				byObj[info.obj] = info
			}
		}
	}

	// Transitive closure: calling a local mutator makes the caller one,
	// except through an allow-marked function (propagation stops there —
	// that is the marker's whole point) or a discharged one (the mutation
	// is already logged where it happens; callers owe nothing further).
	mutates := make(map[*fnInfo]string)
	for _, info := range fns {
		if info.via != "" && !info.allowed && !info.discharged {
			mutates[info] = info.via
		}
	}
	for changed := true; changed; {
		changed = false
		for _, info := range fns {
			if _, done := mutates[info]; done || info.allowed || info.discharged {
				continue
			}
			for callee := range info.callees {
				ci, ok := byObj[callee]
				if !ok {
					continue
				}
				if _, ok := mutates[ci]; ok {
					mutates[info] = "calls " + callee.Name()
					changed = true
					break
				}
			}
		}
	}

	// Export MutatorFact so dependent packages (core importing rtree) see
	// the mutation surface through the API.
	if pass.ExportObjectFact != nil {
		objs := make([]*fnInfo, 0, len(mutates))
		for info := range mutates {
			if info.obj != nil {
				objs = append(objs, info)
			}
		}
		sort.Slice(objs, func(i, j int) bool { return objs[i].decl.Pos() < objs[j].decl.Pos() })
		for _, info := range objs {
			pass.ExportObjectFact(info.obj, &MutatorFact{Via: mutates[info]})
		}
	}

	// The obligation only binds where the WAL lives: a package with no
	// walAppend* methods has nowhere to log to (rtree itself is below the
	// WAL — core logs on its behalf).
	if !walOwner {
		return nil
	}
	for _, info := range fns {
		via, isMut := mutates[info]
		if !isMut || info.allowed {
			continue
		}
		name := info.decl.Name.Name
		if strings.HasSuffix(name, "Locked") {
			// The helper's contract is "caller holds the lock and logs";
			// the obligation lands on the caller, which the closure above
			// already marked as a mutator.
			continue
		}
		pass.Reportf(info.decl.Name.Pos(),
			"%s mutates the index (%s) but never appends a WAL record under a held write lock; log the mutation, or mark the function // %s <reason> if it replays or rebuilds already-durable state",
			name, via, allowMarker)
	}
	return nil
}

// calleeName renders pkg.Func or pkg.Type.Method for diagnostics.
func calleeName(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

// definesWALAppend reports whether the package declares walAppend* methods
// or functions — the marker of the WAL-owning layer.
func definesWALAppend(pass *analysis.Pass) bool {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && strings.HasPrefix(fd.Name.Name, "walAppend") {
				return true
			}
		}
	}
	return false
}

// arenaRecordTypes finds the record types of every slab arena the package
// defines: a named struct with a [][]T (or []T) slab field plus alloc and
// release methods yields record type T.
func arenaRecordTypes(pkg *types.Package) map[*types.Named]bool {
	records := make(map[*types.Named]bool)
	scope := pkg.Scope()
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
		if !ok {
			continue
		}
		hasAlloc, hasRelease := false, false
		for i := 0; i < named.NumMethods(); i++ {
			switch named.Method(i).Name() {
			case "alloc", "Alloc":
				hasAlloc = true
			case "release", "Release":
				hasRelease = true
			}
		}
		if !hasAlloc || !hasRelease {
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
			if rn, ok := ft.(*types.Named); ok {
				if _, isStruct := rn.Underlying().(*types.Struct); isStruct {
					records[rn] = true
				}
			}
		}
	}
	return records
}

// arenaPrimitive recognizes calls to an arena's alloc/release methods.
func arenaPrimitive(pass *analysis.Pass, call *ast.CallExpr, records map[*types.Named]bool) (string, bool) {
	if len(records) == 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch name {
	case "alloc", "Alloc", "release", "Release":
	default:
		return "", false
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn == nil {
		return "", false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false
	}
	// The receiver must be an arena: a type whose methods include both
	// alloc and release and whose slabs carry a known record type. Rather
	// than re-derive, accept any receiver type that has a slab field of a
	// record type.
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	rn, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	st, ok := rn.Underlying().(*types.Struct)
	if !ok {
		return "", false
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
		if fn, ok := ft.(*types.Named); ok && records[fn] {
			return "arena " + name, true
		}
	}
	return "", false
}

// recordFieldWrite recognizes an assignment whose LHS is a field selector
// through a *record pointer (nd.part = ..., pg.ids = append(...)):
// structural mutation that allocates nothing.
func recordFieldWrite(pass *analysis.Pass, as *ast.AssignStmt, records map[*types.Named]bool) (string, bool) {
	for _, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok {
			continue
		}
		tv, ok := pass.TypesInfo.Types[sel.X]
		if !ok {
			continue
		}
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && records[named] {
			return "writes " + named.Obj().Name() + "." + sel.Sel.Name, true
		}
	}
	return "", false
}

// appendsUnderLock reports whether fd lexically calls a walAppend* method
// while a mutex write lock is held (a .Lock() call with no intervening
// .Unlock() on the same receiver; deferred unlocks keep the section open).
func appendsUnderLock(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	held := make(map[string]bool)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			// defer x.Unlock(): section stays open to function end; leave
			// the held entry in place.
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock":
				if isMutexRecv(pass, sel.X) {
					held[exprKey(sel.X)] = true
				}
			case "Unlock":
				if isMutexRecv(pass, sel.X) {
					delete(held, exprKey(sel.X))
				}
			default:
				if strings.HasPrefix(sel.Sel.Name, "walAppend") && len(held) > 0 {
					found = true
				}
			}
		case *ast.Ident:
			// Direct (non-method) walAppend* call.
			if strings.HasPrefix(n.Name, "walAppend") && len(held) > 0 {
				if _, ok := pass.ObjectOf(n).(*types.Func); ok {
					found = true
				}
			}
		}
		return true
	})
	return found
}

func isMutexRecv(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

func exprKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprKey(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprKey(e.X) + "[" + exprKey(e.Index) + "]"
	case *ast.ParenExpr:
		return exprKey(e.X)
	default:
		return "?"
	}
}
