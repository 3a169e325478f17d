// Package analysistest runs an analyzer over golden packages under
// testdata/src and checks its diagnostics against `// want "regexp"`
// comments, the same corpus convention as
// golang.org/x/tools/go/analysis/analysistest (which this module cannot
// vendor — see internal/analysis).
//
// Layout: testdata/src/<pkgname>/*.go is one fake package per directory.
// Packages may import each other by bare directory name (e.g. a fake
// "obs" package next to the package under test) and may import the
// standard library, which is resolved from the toolchain's export data.
// Every .go file line may end with `// want "re"` (repeatable:
// `// want "a" "b"`); the analyzer must report a diagnostic on that line
// matching each regexp, and must report nothing anywhere else.
//
// The packages go through vkg-lint's own pass loop: every sibling package
// a target (transitively) imports is handed to checker.RunPackages before
// the target, in dependency order and quietly, with one shared fact
// store, so facts flow exactly as under vkg-lint. Only the named packages
// carry `// want` expectations. checker.Finish then runs once, and its
// whole-program diagnostics participate in want-matching too.
package analysistest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/checker"
	"vkgraph/internal/analysis/loader"
)

// Run analyzes each named package under dir/src (dir is usually
// "testdata") and reports mismatches through t.
func Run(t *testing.T, dir string, a *analysis.Analyzer, pkgnames ...string) {
	t.Helper()
	src := filepath.Join(dir, "src")
	fset := token.NewFileSet()
	exp, err := stdlibImporter(src, fset)
	if err != nil {
		t.Fatalf("analysistest: resolving stdlib export data: %v", err)
	}
	imp := &siblingImporter{fset: fset, src: src, checked: make(map[string]*loader.Package), std: exp}

	// Depth-first over sibling imports: dependencies before dependents.
	var order []string
	visited := make(map[string]bool)
	var visit func(path string)
	visit = func(path string) {
		if visited[path] {
			return
		}
		visited[path] = true
		pkg, err := imp.check(path)
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		for _, dep := range pkg.Types.Imports() {
			if _, ok := imp.checked[dep.Path()]; ok {
				visit(dep.Path())
			}
		}
		order = append(order, path)
	}
	for _, name := range pkgnames {
		visit(name)
	}

	target := make(map[string]bool, len(pkgnames))
	for _, name := range pkgnames {
		target[name] = true
	}
	analyzers := []*analysis.Analyzer{a}
	facts := analysis.NewFactStore()
	var diags []checker.Diag
	for _, path := range order {
		ds, err := checker.RunPackages(facts, analyzers, []*loader.Package{imp.checked[path]}, !target[path])
		if err != nil {
			t.Fatalf("analysistest: %v", err)
		}
		diags = append(diags, ds...)
	}
	fin, err := checker.Finish(facts, analyzers)
	if err != nil {
		t.Fatalf("analysistest: %v", err)
	}
	diags = append(diags, fin...)

	var targetFiles []*ast.File
	for _, name := range pkgnames {
		targetFiles = append(targetFiles, imp.checked[name].Files...)
	}
	checkWants(t, fset, targetFiles, diags)
}

// siblingImporter loads fake packages under the testdata src root by
// import path, falling back to stdlib export data.
type siblingImporter struct {
	fset    *token.FileSet
	src     string
	checked map[string]*loader.Package
	std     types.Importer
}

func (si *siblingImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := si.checked[path]; ok {
		return pkg.Types, nil
	}
	pkgDir := filepath.Join(si.src, filepath.FromSlash(path))
	if st, err := os.Stat(pkgDir); err == nil && st.IsDir() {
		pkg, err := si.check(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return si.std.Import(path)
}

// check type-checks the fake package at path (recursing into its sibling
// imports through Import) and caches the result.
func (si *siblingImporter) check(path string) (*loader.Package, error) {
	if pkg, ok := si.checked[path]; ok {
		return pkg, nil
	}
	files, err := goFiles(filepath.Join(si.src, filepath.FromSlash(path)))
	if err != nil {
		return nil, err
	}
	tfiles, tpkg, info, err := loader.CheckSource(si.fset, path, files, si)
	if err != nil {
		return nil, err
	}
	pkg := &loader.Package{PkgPath: path, Fset: si.fset, Files: tfiles, Types: tpkg, Info: info}
	si.checked[path] = pkg
	return pkg, nil
}

func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// stdlibImporter builds an export-data importer covering the standard
// library packages the golden files import. The toolchain's export data
// is located with one `go list` over the union of stdlib imports found
// under src — cheap, offline, and cache-warm after the first test run.
func stdlibImporter(src string, fset *token.FileSet) (types.Importer, error) {
	imports := make(map[string]bool)
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, imp := range importPaths(string(data)) {
			// Anything with no dot in the first element and not present as
			// a sibling directory is assumed stdlib.
			if st, err := os.Stat(filepath.Join(src, filepath.FromSlash(imp))); err == nil && st.IsDir() {
				continue
			}
			imports[imp] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	patterns := make([]string, 0, len(imports))
	for imp := range imports {
		patterns = append(patterns, imp)
	}
	sort.Strings(patterns)
	lookup := make(loader.ExportLookup)
	if len(patterns) > 0 {
		listed, err := loader.GoList("", patterns...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Export != "" {
				lookup[lp.ImportPath] = lp.Export
			}
		}
	}
	return loader.NewExportImporter(fset, lookup), nil
}

var importRe = regexp.MustCompile(`(?m)^\s*(?:import\s+)?(?:[\w.]+\s+)?"([^"]+)"`)

// importPaths extracts quoted import paths from a file's import section
// with a regexp rather than a parse — adequate for golden files, which we
// control.
func importPaths(src string) []string {
	// Cut at the first func/type/var/const to avoid matching string
	// literals in code.
	if loc := regexp.MustCompile(`(?m)^(func|type|const)\b`).FindStringIndex(src); loc != nil {
		src = src[:loc[0]]
	}
	var out []string
	for _, m := range importRe.FindAllStringSubmatch(src, -1) {
		out = append(out, m[1])
	}
	return out
}

// wantRe matches one expectation inside a `// want` comment: either a
// backquoted raw pattern (the usual form) or a double-quoted one.
var wantRe = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

// checkWants diffs diagnostics against the `// want` comments.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []checker.Diag) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	// Gather expectations per line.
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				idx := strings.Index(text, "want ")
				if !strings.HasPrefix(text, "//") || idx < 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, m := range wantRe.FindAllStringSubmatch(text[idx:], -1) {
					pat := m[1] // backquoted: raw
					if pat == "" && m[2] != "" {
						unq, err := strconv.Unquote(`"` + m[2] + `"`)
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, m[2], err)
							continue
						}
						pat = unq
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s: bad want regexp %q: %v", pos, pat, err)
						continue
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	// Match each diagnostic against an expectation on its line.
	for _, d := range diags {
		pos := d.Position
		k := key{pos.Filename, pos.Line}
		matched := -1
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
	}
	for k, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
		}
	}
}
