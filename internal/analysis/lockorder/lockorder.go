// Package lockorder keeps write-critical sections on the query path short
// (DESIGN.md "Concurrency"): between mu.Lock and mu.Unlock, on any mutex,
// there may be no potentially blocking operation — channel operations,
// select, time.Sleep, sync.WaitGroup.Wait, filesystem and network calls,
// writes to stdio, and obs registry renders (every Registry.Write* method:
// each takes the registry lock and writes to a client). Lock-free obs
// increments (Counter.Inc, Histogram.Observe, ...) are allowed — the hot
// paths depend on that. The order in which locks are taken is lockgraph's
// business.
//
// The analysis is lexical within one function body: events are ordered by
// source position, which matches how every critical section in this
// module is written (and keeps the checker dependency-free — no SSA).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"vkgraph/internal/analysis"
)

// Analyzer flags blocking operations inside write-critical sections.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "no blocking operation inside a write-critical section on the query path",
	Run:  run,
}

// event is one ordered occurrence inside a function body.
type event struct {
	pos token.Pos
	// op is Lock, RLock, Unlock, or RUnlock for mutex events, "" for
	// blocking-operation events.
	op string
	// key identifies the mutex by the printed receiver expression, so
	// sh.mu.Lock pairs with sh.mu.Unlock.
	key string
	// deferred marks a deferred unlock: the section runs to function end.
	deferred bool
	// blockDesc describes a potentially blocking operation.
	blockDesc string
}

func run(pass *analysis.Pass) error {
	// The rule applies in the packages DESIGN.md calls the query path
	// (internal/core, internal/rtree). Elsewhere, holding a lock across I/O
	// can be a deliberate serialization choice (e.g. the experiments
	// dataset cache memoizes expensive builds under its mutex).
	if !strings.Contains(pass.Pkg.Path(), "internal/core") &&
		!strings.Contains(pass.Pkg.Path(), "internal/rtree") {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// IsMutexType reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex. Shared with lockgraph.
func IsMutexType(t types.Type) bool { return isMutexType(t) }

func isMutexType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// checkFunc scans one function body in source order.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	held := make(map[string]bool) // write-locked keys
	for _, ev := range collectEvents(pass, fd) {
		switch ev.op {
		case "Lock":
			held[ev.key] = true
		case "Unlock":
			// A deferred unlock keeps the section open to function end, which
			// is exactly how the linear scan already treats an unreleased lock.
			if !ev.deferred {
				delete(held, ev.key)
			}
		case "":
			for key := range held {
				pass.Reportf(ev.pos, "%s inside the %s write-critical section; move it outside the lock", ev.blockDesc, key)
				break
			}
		}
	}
}

// collectEvents gathers lock, unlock, and blocking-operation events of fd
// in source order.
func collectEvents(pass *analysis.Pass, fd *ast.FuncDecl) []event {
	var events []event
	add := func(ev event) { events = append(events, ev) }

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if ev, ok := lockEvent(pass, n.Call); ok {
				ev.deferred = true
				add(ev)
				return false
			}
		case *ast.CallExpr:
			if ev, ok := lockEvent(pass, n); ok {
				add(ev)
				return true
			}
			if desc, ok := blockingCall(pass, n); ok {
				add(event{pos: n.Pos(), blockDesc: desc})
			}
		case *ast.SendStmt:
			add(event{pos: n.Pos(), blockDesc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(event{pos: n.Pos(), blockDesc: "channel receive"})
			}
		case *ast.SelectStmt:
			add(event{pos: n.Pos(), blockDesc: "select statement"})
			// Do not descend: the select's cases are themselves blocking ops.
			return false
		case *ast.RangeStmt:
			if t, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
					add(event{pos: n.Pos(), blockDesc: "range over channel"})
				}
			}
		}
		return true
	})
	// ast.Inspect is depth-first in source order for statements within one
	// body, which is the order the scan needs.
	return events
}

// lockEvent recognizes x.mu.Lock / RLock / Unlock / RUnlock calls.
func lockEvent(pass *analysis.Pass, call *ast.CallExpr) (event, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return event{}, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return event{}, false
	}
	if t, ok := pass.TypesInfo.Types[sel.X]; !ok || !isMutexType(t.Type) {
		return event{}, false
	}
	return event{pos: call.Pos(), op: op, key: exprString(sel.X)}, true
}

// blockingCall recognizes calls that may block or perform I/O.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	obj := pass.ObjectOf(call.Fun)
	if obj == nil {
		return "", false
	}
	name := obj.Name()
	// The package-path table below is for package-level functions only:
	// a method on an os/net type (say (*os.File).Name, a field read) must
	// not inherit its package's blocking reputation.
	fn, isFunc := obj.(*types.Func)
	if isFunc && fn.Type().(*types.Signature).Recv() == nil {
		if pkg := obj.Pkg(); pkg != nil {
			switch pkg.Path() {
			case "time":
				if name == "Sleep" {
					return "time.Sleep", true
				}
			case "net", "net/http", "os/exec", "io/ioutil":
				return pkg.Path() + "." + name + " call (I/O)", true
			case "os":
				switch name {
				case "Getenv", "LookupEnv", "Getpid", "Environ", "Expand", "ExpandEnv":
					return "", false
				}
				return "os." + name + " call (I/O)", true
			case "fmt":
				switch name {
				case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
					return "fmt." + name + " call (I/O)", true
				}
			case "log":
				return "log." + name + " call (I/O)", true
			}
		}
	}
	// Method calls: WaitGroup.Wait, Cond.Wait, and obs registry renders.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if t, ok := pass.TypesInfo.Types[sel.X]; ok {
			rt := t.Type
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				tobj := named.Obj()
				tpkg := ""
				if tobj.Pkg() != nil {
					tpkg = tobj.Pkg().Name()
				}
				if tpkg == "sync" && name == "Wait" {
					return "sync." + tobj.Name() + ".Wait", true
				}
				if tpkg == "obs" && tobj.Name() == "Registry" && strings.HasPrefix(name, "Write") {
					return "obs.Registry." + name + " (takes the registry lock)", true
				}
			}
		}
	}
	return "", false
}

// exprString renders a lock receiver expression compactly (ix.mu,
// e.wal.mu) so Lock and Unlock events pair up by key.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	default:
		return "?"
	}
}
