// Package loader type-checks module packages for the analysis suite
// without golang.org/x/tools: package metadata comes from `go list -deps
// -export -json`, the standard library is imported from the compiler's
// export data in the build cache (via go/importer's lookup hook), and
// every other package is parsed and type-checked from source, once, in
// dependency order. Dependents import that source-checked view, so an
// object has one identity for the whole run. It is built on the standard
// library so the linter builds with zero dependencies and no network.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	PkgPath string
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// ListedPackage mirrors the subset of `go list -json` fields we consume.
type ListedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
}

// GoList runs `go list -deps -export -json` in dir over the given
// patterns and returns every package in dependency order (dependencies
// before dependents), compiling export data as a side effect.
func GoList(dir string, patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,CgoFiles,ImportMap,Standard,DepOnly",
		"--",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(ListedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// ExportLookup is an import-path -> export-data-file map usable as the
// lookup hook of an export-data importer.
type ExportLookup map[string]string

// Open implements the go/importer lookup contract.
func (m ExportLookup) Open(path string) (io.ReadCloser, error) {
	file, ok := m[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("loader: no export data for %q", path)
	}
	return os.Open(file)
}

// NewExportImporter returns an importer over the given export-data map.
func NewExportImporter(fset *token.FileSet, lookup ExportLookup) types.Importer {
	return importer.ForCompiler(fset, "gc", lookup.Open)
}

// CheckSource parses and type-checks the named files as the package at
// pkgPath, resolving imports through imp. Type errors fail the load: the
// analyzers assume well-typed input.
func CheckSource(fset *token.FileSet, pkgPath string, filenames []string, imp types.Importer) ([]*ast.File, *types.Package, *types.Info, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	// The analyzers read only these three maps; recording the others
	// (Selections, Implicits, Scopes) costs the type checker time.
	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("type-checking %s: %v", pkgPath, err)
	}
	return files, tpkg, info, nil
}

// Program is a listed-but-not-yet-checked set of packages sharing one
// FileSet, one export-data importer for the standard library, and one map
// of the packages checked from source so far. The checker walks Listed in
// dependency order and type-checks each non-standard package with
// CheckListed.
type Program struct {
	Fset   *token.FileSet
	Listed []*ListedPackage
	exp    types.Importer
	source map[string]*types.Package
}

// ListProgram lists the patterns (and all their dependencies, export data
// compiled as a side effect) in dir, "" meaning the current directory,
// without type-checking anything yet.
func ListProgram(dir string, patterns ...string) (*Program, error) {
	listed, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := make(ExportLookup)
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
	}
	return &Program{
		Fset:   fset,
		Listed: listed,
		exp:    NewExportImporter(fset, exports),
		source: make(map[string]*types.Package),
	}, nil
}

// CheckListed parses and type-checks one listed package from source and
// registers it so later packages in dependency order import this
// source-checked view (with its full object identity) rather than export
// data.
func (pr *Program) CheckListed(lp *ListedPackage) (*Package, error) {
	if len(lp.CgoFiles) > 0 {
		return nil, fmt.Errorf("loader: %s uses cgo, which the source checker does not support", lp.ImportPath)
	}
	filenames := make([]string, len(lp.GoFiles))
	for i, f := range lp.GoFiles {
		filenames[i] = filepath.Join(lp.Dir, f)
	}
	sort.Strings(filenames)
	// Imports resolve after the package's ImportMap (stdlib vendoring): a
	// package this run checked from source wins, the rest is export data.
	imp := importerFunc(func(path string) (*types.Package, error) {
		if mapped, ok := lp.ImportMap[path]; ok {
			path = mapped
		}
		if p, ok := pr.source[path]; ok {
			return p, nil
		}
		return pr.exp.Import(path)
	})
	files, tpkg, info, err := CheckSource(pr.Fset, lp.ImportPath, filenames, imp)
	if err != nil {
		return nil, err
	}
	pr.source[lp.ImportPath] = tpkg
	return &Package{PkgPath: lp.ImportPath, Fset: pr.Fset, Files: files, Types: tpkg, Info: info}, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
