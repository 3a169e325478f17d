// Package lockgraph guards the engine's two-level locking: it builds the
// program-wide lock-order graph, detects the cycles that make it a
// deadlock risk, and keeps write-critical sections on the query path free
// of blocking work.
//
// Every mutex field of a package-level struct type is a lock class, named
// pkg.Type.field (core.Engine.mu, core.lockedIndex.mu, core.walState.mu,
// ...). Within each function the analyzer replays lock events in source
// order, and whenever class B is acquired while class A is held it records
// the edge A → B. Acquisition is visible two ways: a direct x.mu.Lock /
// RLock call, or a call to a function whose (transitive) acquire set is
// known — in-package via a fixed point over the package's call graph,
// cross-package via AcquiresFact on the callee, which is how an edge like
// core.Engine.mu → core.walState.mu is seen from the AddFact body even
// though the wal lock is taken two calls down.
//
// Each package exports its edges as a package fact; the whole-program
// Finish step unions them and reports every cycle, with the full witness
// path (file:line of every edge) — a potential deadlock. An acquisition
// against the documented order (engine lock, then the index, then the
// WAL) is reported as the cycle it closes with the edge it inverts; one
// that closes no cycle cannot deadlock.
//
// The same replay keeps write-critical sections short on the query path
// (DESIGN.md "Concurrency"; import paths containing internal/core or
// internal/rtree). Between mu.Lock and mu.Unlock, on any mutex, classed or
// not, there may be no potentially blocking operation: channel
// operations, select, time.Sleep, sync.WaitGroup.Wait, filesystem and
// network calls, writes to stdio, and obs registry renders (every
// Registry.Write* method takes the registry lock and writes to a client).
// Lock-free obs increments (Counter.Inc, Histogram.Observe, ...) are
// allowed — the hot paths depend on that. Elsewhere, holding a lock across
// I/O can be a deliberate serialization choice (the experiments dataset
// cache memoizes expensive builds under its mutex).
//
// Self-edges (two locks of one class) are excluded from cycle detection
// but shown in the dump. `-lockgraph-dump` prints the whole graph.
//
// Approximations, deliberate (the framework is lexical, not SSA): events
// are ordered by source position within one body; function literals are
// scanned as separate roots with an empty held set (what a deferred or
// spawned closure holds at run time is unknowable lexically), though the
// blocking work a literal does counts against the section it is written
// in; a callee that returns still holding locks contributes edges at the
// call site but does not extend the caller's held set.
package lockgraph

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"vkgraph/internal/analysis"
)

// AcquiresFact records, on a function, the lock classes the function may
// acquire, directly or transitively.
type AcquiresFact struct {
	Classes []string
}

// AFact marks AcquiresFact as a fact type.
func (*AcquiresFact) AFact() {}

// Edge is one observed ordering: To was acquired while From was held.
type Edge struct {
	From string
	To   string
	Op   string // how To was acquired: Lock, RLock, or call
	Pos  string // file:line of the acquisition
	Fn   string // function the acquisition was observed in
}

// EdgesFact is the package fact carrying a package's contribution to the
// program lock graph.
type EdgesFact struct {
	Edges []Edge
}

// AFact marks EdgesFact as a fact type.
func (*EdgesFact) AFact() {}

var dumpGraph bool

// Analyzer builds the cross-package lock-order graph and verifies it is
// acyclic.
var Analyzer = &analysis.Analyzer{
	Name:      "lockgraph",
	Doc:       "build the program-wide lock-order graph; report cycles (potential deadlocks) and blocking work inside a write-critical section on the query path",
	Run:       run,
	FactTypes: []analysis.Fact{new(AcquiresFact), new(EdgesFact)},
	Finish:    finish,
	Flags: func(fs *flag.FlagSet) {
		fs.BoolVar(&dumpGraph, "lockgraph-dump", false, "print the program-wide lock-order graph")
	},
}

// acq is one lock event inside a function.
type acq struct {
	class string // "" for a mutex with no lock class (a variable's)
	op    string // Lock, RLock, Unlock, or RUnlock
	pos   token.Pos
	key   string // receiver expression, to pair with unlocks
}

// funcScan is the per-function lexical summary.
type funcScan struct {
	obj    *types.Func
	name   string
	body   *ast.BlockStmt
	direct []acq
	// callees are in-package functions called from the body.
	callees map[*types.Func]bool
	// foreign maps cross-package callees to their imported acquire sets.
	foreign map[*types.Func][]string
}

func run(pass *analysis.Pass) error {
	classes := classTable(pass.Pkg)

	// Collect scan roots: every function declaration, and every function
	// literal as an independent root (empty held set).
	var scans []*funcScan
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			roots := splitLits(fd.Body)
			for i, body := range roots {
				fs := &funcScan{obj: obj, name: fd.Name.Name, body: body}
				if i > 0 {
					fs.obj = nil // literals carry no fact; their edges still count
					fs.name = fd.Name.Name + " (func literal)"
				}
				scans = append(scans, fs)
			}
		}
	}

	// Pass 1: direct acquisitions and callees per root.
	for _, fs := range scans {
		collectScan(pass, fs, classes)
	}

	// Fixed point over the in-package call graph: acquire(f) = direct ∪
	// callees' acquire ∪ imported facts of cross-package callees.
	// A declaration's own body is its one root with an object.
	acquires := make(map[*types.Func]map[string]bool)
	byObj := make(map[*types.Func]*funcScan)
	for _, fs := range scans {
		if fs.obj == nil {
			continue
		}
		byObj[fs.obj] = fs
		set := make(map[string]bool)
		for _, a := range fs.direct {
			set[a.class] = true
		}
		for _, cls := range fs.foreign {
			for _, c := range cls {
				set[c] = true
			}
		}
		acquires[fs.obj] = set
	}
	for changed := true; changed; {
		changed = false
		for obj, fs := range byObj {
			set := acquires[obj]
			for callee := range fs.callees {
				for c := range acquires[callee] {
					if !set[c] {
						set[c] = true
						changed = true
					}
				}
			}
		}
	}
	for obj, set := range acquires {
		if len(set) > 0 {
			pass.ExportObjectFact(obj, &AcquiresFact{Classes: sortedKeys(set)})
		}
	}

	// Pass 2: replay each root, held-set tracking, edge recording and
	// the blocking rule.
	path := pass.Pkg.Path()
	r := &replayer{
		pass:      pass,
		classes:   classes,
		acquires:  acquires,
		seen:      make(map[[2]string]bool),
		queryPath: strings.Contains(path, "internal/core") || strings.Contains(path, "internal/rtree"),
		reported:  make(map[token.Pos]bool),
	}
	for _, fs := range scans {
		r.replay(fs)
	}

	if len(r.edges) > 0 {
		pass.ExportPackageFact(&EdgesFact{Edges: r.edges})
	}
	return nil
}

// classKinds maps mutex field objects to class names for the package
// under analysis.
type classKinds struct {
	fields map[*types.Var]string // mutex field -> class
}

// classTable enumerates the package's lock classes: every mutex field of
// a package-level struct type.
func classTable(pkg *types.Package) *classKinds {
	ck := &classKinds{fields: make(map[*types.Var]string)}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); isMutexType(f.Type()) {
				ck.fields[f] = className(pkg, name, f.Name())
			}
		}
	}
	return ck
}

// className renders a lock class. Package names are unique within this
// module, so pkgName.Type.field is unambiguous and stays readable in
// diagnostics (core.Engine.mu rather than a full import path).
func className(pkg *types.Package, typeName, fieldName string) string {
	return pkg.Name() + "." + typeName + "." + fieldName
}

// classOfField resolves a mutex field object (possibly from another
// package) to its class name.
func (ck *classKinds) classOfField(f *types.Var) (string, bool) {
	if class, ok := ck.fields[f]; ok {
		return class, true
	}
	fpkg := f.Pkg()
	if fpkg == nil {
		return "", false
	}
	scope := fpkg.Scope()
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
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				class := className(fpkg, name, f.Name())
				ck.fields[f] = class
				return class, true
			}
		}
	}
	return "", false
}

// splitLits returns the function body with literal bodies as separate
// roots: the first element is the body itself (literal subtrees are
// skipped during its scan), followed by each function literal body in
// source order.
func splitLits(body *ast.BlockStmt) []*ast.BlockStmt {
	roots := []*ast.BlockStmt{body}
	for i := 0; i < len(roots); i++ {
		ast.Inspect(roots[i], func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				roots = append(roots, lit.Body)
				return false
			}
			return true
		})
	}
	return roots
}

// inspectRoot walks one root, not descending into nested function
// literals (they are their own roots; Inspect starts at the BlockStmt, so
// any FuncLit seen is strictly nested).
func inspectRoot(body *ast.BlockStmt, visit func(ast.Node) bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return visit(n)
	})
}

// collectScan fills a funcScan's direct acquisitions and callee sets.
func collectScan(pass *analysis.Pass, fs *funcScan, classes *classKinds) {
	fs.callees = make(map[*types.Func]bool)
	fs.foreign = make(map[*types.Func][]string)
	inspectRoot(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if a, ok := lockAcq(pass, call, classes); ok {
			if a.class != "" && (a.op == "Lock" || a.op == "RLock") {
				fs.direct = append(fs.direct, a)
			}
			return true
		}
		callee, _ := pass.ObjectOf(call.Fun).(*types.Func)
		if callee == nil {
			return true
		}
		if callee.Pkg() == pass.Pkg {
			fs.callees[callee] = true
		} else {
			var af AcquiresFact
			if pass.ImportObjectFact(callee, &af) {
				fs.foreign[callee] = af.Classes
			}
		}
		return true
	})
}

// lockAcq recognizes x.Lock / RLock / Unlock / RUnlock on a mutex x. The
// class is x's when x is a struct mutex field with a known class, "" for
// any other mutex (a package-level or local variable).
func lockAcq(pass *analysis.Pass, call *ast.CallExpr, classes *classKinds) (acq, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return acq{}, false
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return acq{}, false
	}
	if t, ok := pass.TypesInfo.Types[sel.X]; !ok || !isMutexType(t.Type) {
		return acq{}, false
	}
	a := acq{op: op, pos: call.Pos(), key: exprKey(sel.X)}
	if fieldSel, ok := sel.X.(*ast.SelectorExpr); ok {
		if fieldObj, ok := pass.ObjectOf(fieldSel.Sel).(*types.Var); ok && fieldObj.IsField() {
			a.class, _ = classes.classOfField(fieldObj)
		}
	}
	return a, true
}

// isMutexType reports whether t (or its pointee) is sync.Mutex or
// sync.RWMutex.
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

// replayer is one package's pass 2: the edges it has recorded, and the
// blocking operations it has reported.
type replayer struct {
	pass     *analysis.Pass
	classes  *classKinds
	acquires map[*types.Func]map[string]bool
	edges    []Edge
	seen     map[[2]string]bool
	// queryPath turns the blocking rule on. reported keeps an operation in
	// a nested literal from being reported once per enclosing root.
	queryPath bool
	reported  map[token.Pos]bool
}

// heldLock is one entry of the held set.
type heldLock struct {
	class string
	write bool
}

// replay walks one root in source order with a held set. It records an
// edge for every acquisition (direct or through a callee's acquire set)
// made while a classed lock is held and, on the query path, reports every
// blocking operation made while a write lock is held.
func (r *replayer) replay(fs *funcScan) {
	pass := r.pass
	held := make(map[string]heldLock) // key -> lock
	emit := func(to, op string, p token.Pos) {
		pp := pass.Fset.Position(p)
		for _, h := range held {
			k := [2]string{h.class, to}
			if h.class == "" || r.seen[k] {
				continue
			}
			r.seen[k] = true
			r.edges = append(r.edges, Edge{From: h.class, To: to, Op: op, Pos: fmt.Sprintf("%s:%d", pp.Filename, pp.Line), Fn: fs.name})
		}
	}
	acquire := func(a acq) {
		if a.class != "" {
			emit(a.class, a.op, a.pos)
		}
		held[a.key] = heldLock{class: a.class, write: a.op == "Lock"}
	}
	block := func(p token.Pos, desc string) {
		key := ""
		for k, h := range held {
			if h.write && (key == "" || k < key) {
				key = k
			}
		}
		if key != "" && !r.reported[p] {
			r.reported[p] = true
			pass.Reportf(p, "%s inside the %s write-critical section; move it outside the lock", desc, key)
		}
	}
	// walk visits root's subtree. locks replays lock events and records
	// edges; blocks applies the blocking rule against the current held set.
	var walk func(root ast.Node, locks, blocks bool)
	walk = func(root ast.Node, locks, blocks bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// Its lock events are its own root's; the blocking work it
				// does counts against the section it is written in.
				if blocks {
					walk(n.Body, false, true)
				}
				return false
			case *ast.SelectStmt:
				if blocks {
					block(n.Pos(), "select statement")
				}
				// The cases' channel operations are the select's own.
				if locks {
					walk(n.Body, true, false)
				}
				return false
			case *ast.DeferStmt:
				if a, ok := lockAcq(pass, n.Call, r.classes); ok {
					// A deferred unlock keeps the section open to the end of
					// the body, which is how an unreleased key already behaves.
					if locks && (a.op == "Lock" || a.op == "RLock") {
						acquire(a)
					}
					return false
				}
			case *ast.CallExpr:
				if a, ok := lockAcq(pass, n, r.classes); ok {
					if !locks {
						return true
					}
					switch a.op {
					case "Lock", "RLock":
						acquire(a)
					case "Unlock", "RUnlock":
						delete(held, a.key)
					}
					return true
				}
				if blocks {
					if desc, ok := blockingCall(pass, n); ok {
						block(n.Pos(), desc)
					}
				}
				if !locks || len(held) == 0 {
					return true
				}
				callee, _ := pass.ObjectOf(n.Fun).(*types.Func)
				if callee == nil {
					return true
				}
				var set []string
				if callee.Pkg() == pass.Pkg {
					set = sortedKeys(r.acquires[callee])
				} else {
					set = fs.foreign[callee]
				}
				for _, c := range set {
					emit(c, "call", n.Pos())
				}
			case *ast.SendStmt:
				if blocks {
					block(n.Pos(), "channel send")
				}
			case *ast.UnaryExpr:
				if blocks && n.Op == token.ARROW {
					block(n.Pos(), "channel receive")
				}
			case *ast.RangeStmt:
				if t, ok := pass.TypesInfo.Types[n.X]; blocks && ok {
					if _, isChan := t.Type.Underlying().(*types.Chan); isChan {
						block(n.Pos(), "range over channel")
					}
				}
			}
			return true
		})
	}
	walk(fs.body, true, r.queryPath)
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

// exprKey renders a lock receiver expression compactly (ix.mu, e.wal.mu)
// so Lock and Unlock events pair up by key.
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
	case *ast.BasicLit:
		return e.Value
	case *ast.CallExpr:
		return exprKey(e.Fun) + "()"
	case *ast.StarExpr:
		return "*" + exprKey(e.X)
	default:
		return "?"
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- whole-program step -------------------------------------------------

func finish(fp *analysis.FinalPass) error {
	edges := union(fp.PackageFacts)
	if dumpGraph {
		dump(edges)
	}

	// Cycle detection over the class graph, self-edges excluded.
	adj := make(map[string][]Edge)
	for _, e := range edges {
		if e.From != e.To {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	for _, list := range adj {
		sort.Slice(list, func(i, j int) bool { return list[i].To < list[j].To })
	}
	reportCycles(fp, adj)
	return nil
}

// union merges the per-package contributions into the program's edges.
// First edge per (From,To) wins — package facts arrive in dependency
// order, so the witness position is stable run to run.
func union(pfs []analysis.PackageFact) (edges []Edge) {
	seen := make(map[[2]string]bool)
	for _, pf := range pfs {
		ef, ok := pf.Fact.(*EdgesFact)
		if !ok {
			continue
		}
		for _, e := range ef.Edges {
			k := [2]string{e.From, e.To}
			if !seen[k] {
				seen[k] = true
				edges = append(edges, e)
			}
		}
	}
	return edges
}

// reportCycles DFS-colors the graph and reports each cycle once with the
// full witness path.
func reportCycles(fp *analysis.FinalPass, adj map[string][]Edge) {
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]int)
	var stack []Edge
	onStack := make(map[string]int) // class -> index into stack where it was entered
	reported := make(map[string]bool)

	var visit func(string)
	visit = func(u string) {
		color[u] = grey
		onStack[u] = len(stack)
		for _, e := range adj[u] {
			switch color[e.To] {
			case white:
				stack = append(stack, e)
				visit(e.To)
				stack = stack[:len(stack)-1]
			case grey:
				cycle := append(append([]Edge{}, stack[onStack[e.To]:]...), e)
				key := cycleKey(cycle)
				if !reported[key] {
					reported[key] = true
					var b strings.Builder
					fmt.Fprintf(&b, "potential deadlock: lock-order cycle %s", cycle[0].From)
					for _, ce := range cycle {
						fmt.Fprintf(&b, " → %s (%s at %s in %s)", ce.To, ce.Op, ce.Pos, ce.Fn)
					}
					fp.Reportf(posnOf(cycle[0].Pos), "%s", b.String())
				}
			}
		}
		delete(onStack, u)
		color[u] = black
	}
	for _, u := range sortedKeys(adj) {
		if color[u] == white {
			visit(u)
		}
	}
}

// cycleKey canonicalizes a cycle (rotation-invariant) so each is reported
// once no matter where the DFS entered it.
func cycleKey(cycle []Edge) string {
	names := make([]string, len(cycle))
	for i, e := range cycle {
		names[i] = e.From
	}
	min := 0
	for i := range names {
		if names[i] < names[min] {
			min = i
		}
	}
	rotated := append(append([]string{}, names[min:]...), names[:min]...)
	return strings.Join(rotated, "→")
}

// posnOf parses the "file:line" strings facts carry back into a position.
func posnOf(pos string) token.Position {
	i := strings.LastIndex(pos, ":")
	if i < 0 {
		return token.Position{Filename: pos}
	}
	line, err := strconv.Atoi(pos[i+1:])
	if err != nil {
		return token.Position{Filename: pos}
	}
	return token.Position{Filename: pos[:i], Line: line}
}

// dump prints the whole graph, sorted, to stdout.
func dump(edges []Edge) {
	sorted := append([]Edge{}, edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	fmt.Println("lock graph (A -> B: B acquired while A held):")
	for _, e := range sorted {
		fmt.Printf("  %-28s -> %-28s %-5s %s (%s)\n", e.From, e.To, e.Op, e.Pos, e.Fn)
	}
	if len(sorted) == 0 {
		fmt.Println("  (no edges: no nested lock acquisitions observed)")
	}
}
