// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: an Analyzer is a named check
// with a Run function, a Pass hands it one type-checked package, and
// diagnostics are reported through the Pass.
//
// The API deliberately mirrors the upstream framework (Analyzer, Pass,
// Diagnostic, Reportf) so that the day this module takes the x/tools
// dependency, the custom analyzers under internal/analysis/... port by
// changing one import path. Until then the suite stays buildable offline
// with the standard library alone, which is the same zero-dependency
// stance the rest of the engine takes (see internal/obs).
//
// What is intentionally missing relative to x/tools: the Requires/ResultOf
// analyzer graph, suggested fixes, and fact serialization. Cross-package
// facts — typed values attached to objects or packages, propagated in
// dependency order — ARE implemented (see Fact, FactStore), in memory for
// the length of one run: the program-wide lock graph and the sentinel
// errors span core, rtree, and serve, so a one-package-at-a-time view
// cannot see them.
package analysis

import (
	"flag"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command line.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package and reports diagnostics
	// through the Pass. The error return is for operational failures
	// (analyzer bugs, not findings); findings are diagnostics.
	Run func(*Pass) error
	// FactTypes lists prototypes of every Fact type this analyzer exports
	// or imports (pointers to zero values). An analyzer with FactTypes is
	// fact-aware: the checker also runs it, quietly, over the packages the
	// targets depend on, so their facts exist before a dependent asks.
	FactTypes []Fact
	// Finish, if set, runs once after every package has been analyzed,
	// with the union of all exported facts — the whole-program step for
	// analyzers (like the lock-graph cycle detector) whose verdict needs
	// every package's contribution at once.
	Finish func(*FinalPass) error
	// Flags, if set, registers analyzer-specific command-line flags
	// (e.g. lockgraph's -lockgraph-dump) on the driver's flag set.
	Flags func(*flag.FlagSet)
}

// Pass is one (analyzer, package) unit of work.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	// ExportObjectFact attaches a fact to obj, which must belong to the
	// package under analysis. Facts on exported (or field/method) objects
	// are visible to dependent packages via ImportObjectFact.
	ExportObjectFact func(obj types.Object, f Fact)
	// ImportObjectFact copies the fact of f's concrete type attached to
	// obj (by this or an earlier package's analysis) into f, reporting
	// whether one existed.
	ImportObjectFact func(obj types.Object, f Fact) bool
	// ExportPackageFact attaches a fact to the package under analysis;
	// the analyzer's Finish step reads it.
	ExportPackageFact func(f Fact)
}

// Fact is a typed value an analyzer attaches to an object or package,
// visible to the analysis of every dependent package in the same run.
// Concrete fact types must be pointers to structs; AFact is a marker.
type Fact interface{ AFact() }

// PackageFact pairs a package with one fact attached to it.
type PackageFact struct {
	Package *types.Package
	Fact    Fact
}

// FinalPass is the whole-program step handed to Analyzer.Finish after all
// packages were analyzed.
type FinalPass struct {
	Analyzer *Analyzer
	// PackageFacts are every package fact this analyzer exported, across
	// all packages, in analysis (dependency) order.
	PackageFacts []PackageFact
	// Reportf reports a whole-program diagnostic at an already-resolved
	// position (facts carry "file:line" strings across packages, not
	// token.Pos values, which are meaningless outside their FileSet).
	Reportf func(posn token.Position, format string, args ...interface{})
}

// Diagnostic is one finding at a position in the package under analysis.
// Whole-program findings go through FinalPass.Reportf instead.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ObjectOf resolves an identifier or selector expression to the object it
// uses (or defines), or nil. Shared by the analyzers for sentinel and
// callee resolution.
func (p *Pass) ObjectOf(e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		if o := p.TypesInfo.Uses[e]; o != nil {
			return o
		}
		return p.TypesInfo.Defs[e]
	case *ast.SelectorExpr:
		return p.ObjectOf(e.Sel)
	case *ast.ParenExpr:
		return p.ObjectOf(e.X)
	}
	return nil
}

// ParentMap records the parent of every node in a set of files, so
// analyzers can walk outward from a finding (x/tools gets this from the
// inspector; here it is an explicit pre-pass).
type ParentMap struct {
	parent map[ast.Node]ast.Node
}

// NewParentMap builds a parent map over the given files.
func NewParentMap(files []*ast.File) *ParentMap {
	pm := &ParentMap{parent: make(map[ast.Node]ast.Node)}
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				pm.parent[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return pm
}

// Parent returns the immediate parent of n, or nil at a file root.
func (pm *ParentMap) Parent(n ast.Node) ast.Node { return pm.parent[n] }
