// Package sentinelerr enforces the module's typed-sentinel error
// contract: sentinels (package-level `var ErrX = errors.New(...)`) are
// matched with errors.Is, wrapped with %w, and never shadowed by ad-hoc
// error strings that repeat a sentinel's message.
//
// Rules:
//
//  1. No `err == ErrX` / `err != ErrX`: wrapped errors (which is how every
//     validation helper returns them) never compare equal; use errors.Is.
//  2. fmt.Errorf with a sentinel argument must bind it to a %w verb, so
//     the sentinel stays in the error chain.
//  3. errors.New / fmt.Errorf must not mint a new error whose message
//     duplicates a known sentinel's message ("unknown entity %q", ...):
//     such errors look like the sentinel to a human but are invisible to
//     errors.Is. The known messages are the ones collected from the
//     package itself plus KnownSentinels, the module-wide table.
//
// A foreign sentinel returned verbatim from an exported function is not a
// finding: errors.Is still matches it, and only message context is lost.
package sentinelerr

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"vkgraph/internal/analysis"
)

// Analyzer enforces errors.Is/%w discipline around sentinel errors.
var Analyzer = &analysis.Analyzer{
	Name:      "sentinelerr",
	Doc:       "enforce errors.Is matching, %w wrapping, and non-shadowing of sentinel errors",
	Run:       run,
	FactTypes: []analysis.Fact{new(SentinelFact)},
}

// SentinelFact records, on a sentinel error variable, the message its
// errors.New initializer carries. Message strings do not travel in export
// data, so before facts the cross-package shadow check (rule 3) leaned
// entirely on the hand-maintained KnownSentinels table; with facts, any
// imported package's sentinels are checked automatically and the table
// remains only as a fallback for packages outside the analyzed set.
type SentinelFact struct {
	Message string
}

// AFact marks SentinelFact as a fact type.
func (*SentinelFact) AFact() {}

// KnownSentinels maps a sentinel's message text to the name callers
// should wrap. This is the project-specific part of the analyzer: the
// module's cross-package sentinels, visible even where the defining
// package is not imported (message strings do not travel in export data).
var KnownSentinels = map[string]string{
	"unknown entity":               "vkg.ErrUnknownEntity",
	"unknown relation":             "vkg.ErrUnknownRelation",
	"unknown attribute":            "vkg.ErrUnknownAttribute",
	"corrupt snapshot":             "snapfmt.ErrCorrupt (vkg.ErrCorruptSnapshot)",
	"unsupported snapshot version": "snapfmt.ErrVersion (vkg.ErrVersion)",
	"server overloaded":            "vkg.ErrOverloaded",
	"deadline exceeded":            "vkg.ErrDeadlineExceeded",
}

func run(pass *analysis.Pass) error {
	local, initPos := localSentinels(pass)
	messages := make(map[string]string, len(KnownSentinels)+len(local))
	for msg, name := range KnownSentinels {
		messages[msg] = name
	}
	for obj, msg := range local {
		if msg != "" {
			messages[msg] = obj.Name()
			if pass.ExportObjectFact != nil {
				pass.ExportObjectFact(obj, &SentinelFact{Message: msg})
			}
		}
	}
	// Sentinels of imported packages, via facts exported when those
	// packages were analyzed (dependency order guarantees that happened
	// first).
	if pass.ImportObjectFact != nil {
		for _, imp := range pass.Pkg.Imports() {
			scope := imp.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !isSentinelObject(obj) {
					continue
				}
				var sf SentinelFact
				if pass.ImportObjectFact(obj, &sf) && sf.Message != "" {
					if _, dup := messages[sf.Message]; !dup {
						messages[sf.Message] = imp.Name() + "." + obj.Name()
					}
				}
			}
		}
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, _ := decl.(*ast.FuncDecl)
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.BinaryExpr:
					checkComparison(pass, n, fd)
				case *ast.CallExpr:
					checkErrorf(pass, n)
					checkShadow(pass, n, messages, initPos)
				}
				return true
			})
		}
	}
	return nil
}

// localSentinels collects the package's own sentinels: package-level
// error vars named Err*, with their message when initialized by
// errors.New("..."). The second result is the set of initializer
// positions, so checkShadow can tell the definition itself apart from a
// duplicate of its message elsewhere.
func localSentinels(pass *analysis.Pass) (map[types.Object]string, map[token.Pos]bool) {
	out := make(map[types.Object]string)
	initPos := make(map[token.Pos]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := pass.TypesInfo.Defs[name]
					if obj == nil || !isSentinelObject(obj) {
						continue
					}
					msg := ""
					if i < len(vs.Values) {
						msg = newErrorMessage(pass, vs.Values[i])
						initPos[vs.Values[i].Pos()] = true
					}
					out[obj] = msg
				}
			}
		}
	}
	return out, initPos
}

// newErrorMessage returns the message of an errors.New("...") initializer
// (pass==nil-safe for other initializer shapes: aliasing another sentinel,
// fmt.Errorf, etc. yield "").
func newErrorMessage(pass *analysis.Pass, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return ""
	}
	if !isPkgFunc(pass, call.Fun, "errors", "New") {
		return ""
	}
	msg, _ := stringLit(call.Args[0])
	return msg
}

// isSentinelObject reports whether obj is a package-level error variable
// named Err*.
func isSentinelObject(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil {
		return false
	}
	if v.Parent() != v.Pkg().Scope() {
		return false
	}
	name := v.Name()
	if !strings.HasPrefix(name, "Err") || len(name) < 4 {
		return false
	}
	return isErrorType(v.Type())
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// sentinelUse resolves e to a sentinel object if it refers to one.
func sentinelUse(pass *analysis.Pass, e ast.Expr) types.Object {
	obj := pass.ObjectOf(e)
	if obj != nil && isSentinelObject(obj) {
		return obj
	}
	return nil
}

// checkComparison flags ==/!= against a sentinel (rule 1).
func checkComparison(pass *analysis.Pass, be *ast.BinaryExpr, fd *ast.FuncDecl) {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return
	}
	// An errors.Is implementation is the one place identity comparison
	// belongs.
	if fd != nil && fd.Name.Name == "Is" {
		return
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		if obj := sentinelUse(pass, pair[0]); obj != nil {
			if ident, ok := pair[1].(*ast.Ident); ok && ident.Name == "nil" {
				continue
			}
			pass.Reportf(be.Pos(), "comparison %s %s %s: sentinel errors are wrapped with %%w, so identity comparison misses them; use errors.Is", render(pair[1]), be.Op, obj.Name())
			return
		}
	}
}

// checkErrorf flags fmt.Errorf calls that pass a sentinel to a verb other
// than %w (rule 2).
func checkErrorf(pass *analysis.Pass, call *ast.CallExpr) {
	if !isPkgFunc(pass, call.Fun, "fmt", "Errorf") || len(call.Args) < 2 {
		return
	}
	format, ok := stringLit(call.Args[0])
	if !ok {
		return
	}
	verbs := formatVerbs(format)
	for i, arg := range call.Args[1:] {
		obj := sentinelUse(pass, arg)
		if obj == nil {
			continue
		}
		verb := byte(0)
		if i < len(verbs) {
			verb = verbs[i]
		}
		if verb != 'w' {
			pass.Reportf(arg.Pos(), "sentinel %s passed to fmt.Errorf with %%%c; use %%w so errors.Is still matches the wrapped error", obj.Name(), printableVerb(verb))
		}
	}
}

// checkShadow flags errors.New / fmt.Errorf whose message duplicates a
// known sentinel message without wrapping the sentinel (rule 3).
func checkShadow(pass *analysis.Pass, call *ast.CallExpr, messages map[string]string, initPos map[token.Pos]bool) {
	var msg string
	var isErrorf bool
	switch {
	case isPkgFunc(pass, call.Fun, "errors", "New") && len(call.Args) == 1:
		m, ok := stringLit(call.Args[0])
		if !ok {
			return
		}
		msg = m
	case isPkgFunc(pass, call.Fun, "fmt", "Errorf") && len(call.Args) >= 1:
		m, ok := stringLit(call.Args[0])
		if !ok {
			return
		}
		msg = m
		isErrorf = true
	default:
		return
	}
	// A sentinel's own definition is where its message legitimately lives.
	if initPos[call.Pos()] {
		return
	}
	if isErrorf {
		// Wrapping the sentinel is exactly what the rule asks for.
		for _, arg := range call.Args[1:] {
			if sentinelUse(pass, arg) != nil && strings.Contains(msg, "%w") {
				return
			}
		}
	}
	for sentMsg, name := range messages {
		if shadowsMessage(msg, sentMsg) {
			pass.Reportf(call.Pos(), "error text %q duplicates the message of sentinel %s; wrap the sentinel with fmt.Errorf(\"...: %%w\", ...) so errors.Is works", msg, name)
			return
		}
	}
}

// shadowsMessage reports whether msg re-states sentMsg: identical, or
// sentMsg followed by formatting detail ("unknown entity %q"), optionally
// behind a "pkg: " prefix.
func shadowsMessage(msg, sentMsg string) bool {
	m := strings.ToLower(msg)
	s := strings.ToLower(sentMsg)
	if i := strings.LastIndex(m, ": "); i >= 0 && strings.HasPrefix(m[i+2:], s) {
		m = m[i+2:]
	}
	if !strings.HasPrefix(m, s) {
		return false
	}
	rest := m[len(s):]
	return rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, ":")
}

// --- small shared helpers ---

func isPkgFunc(pass *analysis.Pass, fun ast.Expr, pkgPath, name string) bool {
	obj := pass.ObjectOf(fun)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	return s, true
}

// formatVerbs extracts the verb letters of a format string in argument
// order (a minimal scanner: flags, width, and precision are skipped, %%
// consumes no argument, and explicit argument indexes are not handled —
// the module does not use them).
func formatVerbs(format string) []byte {
	var verbs []byte
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i < len(format) && format[i] == '%' {
			continue
		}
		for i < len(format) && !isVerbLetter(format[i]) {
			i++
		}
		if i < len(format) {
			verbs = append(verbs, format[i])
		}
	}
	return verbs
}

func isVerbLetter(c byte) bool {
	return (c >= 'a' && c <= 'z' && c != '.' && c != '*') || (c >= 'A' && c <= 'Z')
}

func printableVerb(v byte) byte {
	if v == 0 {
		return '?'
	}
	return v
}

func render(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return render(e.X) + "." + e.Sel.Name
	default:
		return "expr"
	}
}
