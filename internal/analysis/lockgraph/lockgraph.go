// Package lockgraph builds the program-wide lock-order graph and detects
// the cycles that make it a deadlock risk.
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
// Finish step unions them and reports:
//
//   - any cycle, with the full witness path (file:line of every edge) —
//     a potential deadlock;
//   - any edge that inverts the documented rank order engine(0) →
//     leaf(1), where the ranks come from a structural shape: an engine is
//     a mutex-bearing struct with a field of another mutex-bearing struct
//     type, and each such struct hung off an engine field is a leaf (the
//     index, the WAL state, the result cache, the trace store). The order
//     among leaves (index before WAL) is not ranked: an inversion there
//     closes a cycle with the edge it inverts.
//
// Self-edges (two locks of one class) are excluded from cycle detection
// but shown in the dump. `-lockgraph-dump` prints the whole graph.
//
// Approximations, deliberate (the framework is lexical, not SSA): events
// are ordered by source position within one body; function literals are
// scanned as separate roots with an empty held set (what a deferred or
// spawned closure holds at run time is unknowable lexically); a callee
// that returns still holding locks contributes edges at the call site but
// does not extend the caller's held set.
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
	"vkgraph/internal/analysis/lockorder"
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

// ClassInfo carries a lock class's rank in the documented order:
// 0 engine, 1 leaf; -1 unknown (no shape evidence).
type ClassInfo struct {
	Name string
	Rank int
}

// EdgesFact is the package fact carrying a package's contribution to the
// program lock graph.
type EdgesFact struct {
	Edges   []Edge
	Classes []ClassInfo
}

// AFact marks EdgesFact as a fact type.
func (*EdgesFact) AFact() {}

var dumpGraph bool

// Analyzer builds the cross-package lock-order graph and verifies it is
// acyclic and rank-ordered.
var Analyzer = &analysis.Analyzer{
	Name:      "lockgraph",
	Doc:       "build the program-wide lock-order graph; report cycles (potential deadlocks) and engine→leaf rank inversions",
	Run:       run,
	FactTypes: []analysis.Fact{new(AcquiresFact), new(EdgesFact)},
	Finish:    finish,
	Flags: func(fs *flag.FlagSet) {
		fs.BoolVar(&dumpGraph, "lockgraph-dump", false, "print the program-wide lock-order graph")
	},
}

// acq is one direct lock acquisition inside a function.
type acq struct {
	class string
	op    string
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
	acquires := make(map[*types.Func]map[string]bool)
	byObj := make(map[*types.Func][]*funcScan)
	for _, fs := range scans {
		if fs.obj != nil {
			byObj[fs.obj] = append(byObj[fs.obj], fs)
		}
	}
	for obj, list := range byObj {
		set := make(map[string]bool)
		for _, fs := range list {
			for _, a := range fs.direct {
				set[a.class] = true
			}
			for _, cls := range fs.foreign {
				for _, c := range cls {
					set[c] = true
				}
			}
		}
		acquires[obj] = set
	}
	for changed := true; changed; {
		changed = false
		for obj, list := range byObj {
			set := acquires[obj]
			for _, fs := range list {
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
	}
	if pass.ExportObjectFact != nil {
		for obj, set := range acquires {
			if len(set) == 0 {
				continue
			}
			fact := &AcquiresFact{Classes: sortedKeys(set)}
			pass.ExportObjectFact(obj, fact)
		}
	}

	// Pass 2: replay each root, held-set tracking, edge recording.
	seen := make(map[[2]string]bool)
	var edges []Edge
	addEdge := func(e Edge) {
		k := [2]string{e.From, e.To}
		if seen[k] {
			return
		}
		seen[k] = true
		edges = append(edges, e)
	}
	for _, fs := range scans {
		replayEdges(pass, fs, classes, acquires, addEdge)
	}

	if pass.ExportPackageFact != nil && (len(edges) > 0 || len(classes.info) > 0) {
		fact := &EdgesFact{Edges: edges, Classes: classes.infoList()}
		pass.ExportPackageFact(fact)
	}
	return nil
}

// classKinds maps lock classes to ranks and mutex field objects to class
// names for the package under analysis.
type classKinds struct {
	pkg    *types.Package
	fields map[*types.Var]string // mutex field -> class
	info   map[string]int        // class -> rank
}

// classTable enumerates the package's lock classes and ranks them by the
// engine/leaf shape.
func classTable(pkg *types.Package) *classKinds {
	ck := &classKinds{pkg: pkg, fields: make(map[*types.Var]string), info: make(map[string]int)}
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
		var own []*types.Var
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); lockorder.IsMutexType(f.Type()) {
				own = append(own, f)
			}
		}
		// Leaves: a mutex-bearing struct hung off a field ((possibly
		// pointer) named struct) of a struct that has a mutex of its own is
		// one level below it in the documented order. This is how
		// core.lockedIndex.mu, core.walState.mu, core.resultCache.mu, and
		// obs.TraceStore.mu get rank 1 from core's own shape, even across
		// packages — and what makes core.Engine an engine, with its one
		// own mutex, Engine.mu, at rank 0.
		leaves := 0
		for i := 0; len(own) > 0 && i < st.NumFields(); i++ {
			ft := st.Field(i).Type()
			if p, ok := ft.(*types.Pointer); ok {
				ft = p.Elem()
			}
			fn, ok := ft.(*types.Named)
			// Mutexes themselves, and sync's internals (Once, Cond), are
			// synchronization primitives, not lock-bearing state.
			if !ok || fn == named || fn.Obj().Pkg() == nil || fn.Obj().Pkg().Path() == "sync" {
				continue
			}
			fst, ok := fn.Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for j := 0; j < fst.NumFields(); j++ {
				lf := fst.Field(j)
				if !lockorder.IsMutexType(lf.Type()) {
					continue
				}
				leaves++
				class := className(fn.Obj().Pkg(), fn.Obj().Name(), lf.Name())
				ck.setRank(class, 1)
				if fn.Obj().Pkg() == pkg {
					ck.fields[lf] = class
				}
			}
		}
		rank := -1
		if leaves > 0 {
			rank = 0
		}
		for _, f := range own {
			class := className(pkg, name, f.Name())
			ck.fields[f] = class
			ck.setRank(class, rank)
		}
	}
	return ck
}

// setRank records a class's rank, never downgrading: shape evidence
// (>= 0) beats no evidence (-1), and if two shapes disagree the more
// senior (lower) rank wins — the scope scan visits types alphabetically,
// so a leaf ranking from the engine's field walk must survive the later
// visit of the leaf type itself.
func (ck *classKinds) setRank(class string, rank int) {
	old, ok := ck.info[class]
	switch {
	case !ok:
		ck.info[class] = rank
	case rank < 0:
		// no new evidence
	case old < 0 || rank < old:
		ck.info[class] = rank
	}
}

func (ck *classKinds) infoList() []ClassInfo {
	out := make([]ClassInfo, 0, len(ck.info))
	for name, rank := range ck.info {
		out = append(out, ClassInfo{Name: name, Rank: rank})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
			if a.op == "Lock" || a.op == "RLock" {
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
		} else if pass.ImportObjectFact != nil {
			var af AcquiresFact
			if pass.ImportObjectFact(callee, &af) {
				fs.foreign[callee] = af.Classes
			}
		}
		return true
	})
}

// lockAcq recognizes x.mu.Lock / RLock / Unlock / RUnlock where x.mu is a
// struct mutex field with a known class.
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
	fieldSel, ok := sel.X.(*ast.SelectorExpr)
	if !ok {
		return acq{}, false
	}
	fieldObj, ok := pass.ObjectOf(fieldSel.Sel).(*types.Var)
	if !ok || !fieldObj.IsField() || !lockorder.IsMutexType(fieldObj.Type()) {
		return acq{}, false
	}
	class, ok := classes.classOfField(fieldObj)
	if !ok {
		return acq{}, false
	}
	return acq{class: class, op: op, pos: call.Pos(), key: exprKey(sel.X)}, true
}

// replayEdges walks one root in source order with a held set, recording an
// edge for every acquisition (direct or through a callee's acquire set)
// made while other classes are held.
func replayEdges(pass *analysis.Pass, fs *funcScan, classes *classKinds, acquires map[*types.Func]map[string]bool, addEdge func(Edge)) {
	type heldLock struct{ class string }
	held := make(map[string]heldLock) // key -> class
	posn := func(p token.Pos) string {
		pp := pass.Fset.Position(p)
		return fmt.Sprintf("%s:%d", pp.Filename, pp.Line)
	}
	emit := func(to, op string, p token.Pos) {
		for _, h := range held {
			addEdge(Edge{From: h.class, To: to, Op: op, Pos: posn(p), Fn: fs.name})
		}
	}
	inspectRoot(fs.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			if a, ok := lockAcq(pass, n.Call, classes); ok {
				// A deferred unlock keeps the section open to the end of
				// the body, which is how an unreleased key already behaves.
				if a.op == "Lock" || a.op == "RLock" {
					emit(a.class, a.op, a.pos)
					held[a.key] = heldLock{class: a.class}
				}
				return false
			}
		case *ast.CallExpr:
			if a, ok := lockAcq(pass, n, classes); ok {
				switch a.op {
				case "Lock", "RLock":
					emit(a.class, a.op, a.pos)
					held[a.key] = heldLock{class: a.class}
				case "Unlock", "RUnlock":
					delete(held, a.key)
				}
				return true
			}
			if len(held) == 0 {
				return true
			}
			callee, _ := pass.ObjectOf(n.Fun).(*types.Func)
			if callee == nil {
				return true
			}
			var set []string
			if callee.Pkg() == pass.Pkg {
				set = sortedKeys(acquires[callee])
			} else {
				set = fs.foreign[callee]
			}
			for _, c := range set {
				emit(c, "call", n.Pos())
			}
		}
		return true
	})
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

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// --- whole-program step -------------------------------------------------

func finish(fp *analysis.FinalPass) error {
	// Union the per-package contributions. First edge per (From,To) wins —
	// package facts arrive in dependency order, so the witness position is
	// stable run to run.
	var edges []Edge
	seen := make(map[[2]string]bool)
	ranks := make(map[string]int)
	for _, pf := range fp.PackageFacts {
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
		for _, ci := range ef.Classes {
			old, ok := ranks[ci.Name]
			switch {
			case !ok:
				ranks[ci.Name] = ci.Rank
			case ci.Rank >= 0 && (old < 0 || ci.Rank < old):
				ranks[ci.Name] = ci.Rank
			}
		}
	}

	if dumpGraph {
		dump(edges, ranks)
	}

	// Rank inversions: an edge from a ranked class to a strictly
	// lower-ranked class contradicts the documented engine→leaf order even
	// before it closes a cycle.
	for _, e := range edges {
		rf, okF := ranks[e.From]
		rt, okT := ranks[e.To]
		if okF && okT && rf >= 0 && rt >= 0 && e.From != e.To && rf > rt {
			fp.Reportf(posnOf(e.Pos),
				"lock order inverted: %s (%s) acquired while %s (%s) is held in %s; the documented order is engine → leaf",
				e.To, rankName(rt), e.From, rankName(rf), e.Fn)
		}
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
	for _, u := range sortedKeys(boolKeys(adj)) {
		if color[u] == white {
			visit(u)
		}
	}
}

func boolKeys(adj map[string][]Edge) map[string]bool {
	m := make(map[string]bool, len(adj))
	for k := range adj {
		m[k] = true
	}
	return m
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
func dump(edges []Edge, ranks map[string]int) {
	sorted := append([]Edge{}, edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].From != sorted[j].From {
			return sorted[i].From < sorted[j].From
		}
		return sorted[i].To < sorted[j].To
	})
	fmt.Println("lock graph (A -> B: B acquired while A held):")
	for _, e := range sorted {
		fmt.Printf("  %-28s -> %-28s [%s -> %s] %-5s %s (%s)\n",
			e.From, e.To, rankName(rankOf(ranks, e.From)), rankName(rankOf(ranks, e.To)), e.Op, e.Pos, e.Fn)
	}
	if len(sorted) == 0 {
		fmt.Println("  (no edges: no nested lock acquisitions observed)")
	}
	var classes []string
	for c := range ranks {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	fmt.Println("lock classes:")
	for _, c := range classes {
		fmt.Printf("  %-28s rank %s\n", c, rankName(ranks[c]))
	}
}

func rankOf(ranks map[string]int, class string) int {
	if r, ok := ranks[class]; ok {
		return r
	}
	return -1
}

func rankName(rank int) string {
	switch rank {
	case 0:
		return "engine"
	case 1:
		return "leaf"
	}
	return "?"
}
