// Package checker runs vkg-lint's analyzers. `vkg-lint ./...` lists the
// patterns and their dependencies once (loader.ListProgram), type-checks
// every non-standard package from source in dependency order, and runs
// every analyzer over each with one in-memory fact store shared by all
// passes, so a dependent sees its dependencies' facts. A package the
// patterns only depend on is analyzed quietly: its fact-bearing analyzers
// run for their facts and its diagnostics are dropped (lint it by name to
// see them). The whole-program Finish steps run last, over every fact of
// the run.
package checker

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/loader"
)

// A Diag pairs a diagnostic with the analyzer that produced it and the
// resolved position.
type Diag struct {
	Analyzer string
	Position token.Position
	Message  string
}

// RunPackages executes the analyzers over the packages, binding every pass
// to the shared fact store. With quiet set, diagnostics are discarded and
// only fact export happens — the dependency-only prepass.
func RunPackages(facts *analysis.FactStore, analyzers []*analysis.Analyzer, pkgs []*loader.Package, quiet bool) ([]Diag, error) {
	var diags []Diag
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if quiet && len(a.FactTypes) == 0 {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			facts.BindPass(pass)
			name := a.Name
			if quiet {
				pass.Report = func(analysis.Diagnostic) {}
			} else {
				pass.Report = func(d analysis.Diagnostic) {
					diags = append(diags, Diag{Analyzer: name, Position: pkg.Fset.Position(d.Pos), Message: d.Message})
				}
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	return diags, nil
}

// Finish runs each analyzer's whole-program step over the union of
// exported facts.
func Finish(facts *analysis.FactStore, analyzers []*analysis.Analyzer) ([]Diag, error) {
	var diags []Diag
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		name := a.Name
		fp := &analysis.FinalPass{
			Analyzer:     a,
			PackageFacts: facts.FactsFor(a),
			Reportf: func(posn token.Position, format string, args ...interface{}) {
				diags = append(diags, Diag{Analyzer: name, Position: posn, Message: fmt.Sprintf(format, args...)})
			},
		}
		if err := a.Finish(fp); err != nil {
			return nil, fmt.Errorf("%s (finish): %v", a.Name, err)
		}
	}
	return diags, nil
}

func sortDiags(diags []Diag) []Diag {
	sort.Slice(diags, func(i, j int) bool {
		pi, pj := diags[i].Position, diags[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// Main is the entry point of cmd/vkg-lint: it parses the analyzers' own
// flags (vkg-lint has none of its own) and runs Check over the remaining
// arguments in the current directory.
func Main(analyzers []*analysis.Analyzer) int {
	fs := flag.NewFlagSet("vkg-lint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: vkg-lint [flags] <packages>")
		fs.PrintDefaults()
	}
	for _, a := range analyzers {
		if a.Flags != nil {
			a.Flags(fs)
		}
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	return Check(analyzers, "", fs.Args(), os.Stdout, os.Stderr)
}

// Check lints the packages matching patterns, listed from dir ("" meaning
// the current directory). It prints each diagnostic to stdout as one
// `file:line:col: [analyzer] message` line, sorted by position, and returns
// the exit code: 0 clean, 1 diagnostics reported, 2 operational failure (a
// package that does not list or type-check, or an analyzer error, reported
// on stderr).
func Check(analyzers []*analysis.Analyzer, dir string, patterns []string, stdout, stderr io.Writer) int {
	diags, err := lint(analyzers, dir, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "vkg-lint: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: [%s] %s\n", d.Position, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func lint(analyzers []*analysis.Analyzer, dir string, patterns []string) ([]Diag, error) {
	pr, err := loader.ListProgram(dir, patterns...)
	if err != nil {
		return nil, err
	}
	facts := analysis.NewFactStore()
	var diags []Diag
	for _, lp := range pr.Listed {
		if lp.Standard {
			continue
		}
		pkg, err := pr.CheckListed(lp)
		if err != nil {
			return nil, err
		}
		ds, err := RunPackages(facts, analyzers, []*loader.Package{pkg}, lp.DepOnly)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	fin, err := Finish(facts, analyzers)
	if err != nil {
		return nil, err
	}
	return sortDiags(append(diags, fin...)), nil
}
