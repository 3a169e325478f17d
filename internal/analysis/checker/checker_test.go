package checker_test

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vkgraph/internal/analysis"
	"vkgraph/internal/analysis/checker"
)

// deprecatedFact marks a function whose doc comment has a "Deprecated:"
// paragraph.
type deprecatedFact struct{}

func (*deprecatedFact) AFact() {}

// deprecated reports calls to deprecated functions. It reads the doc
// comments of its own package only, so a deprecated function of another
// package is known to it through deprecatedFact alone.
var deprecated = &analysis.Analyzer{
	Name:      "deprecated",
	Doc:       "report calls to deprecated functions",
	FactTypes: []analysis.Fact{new(deprecatedFact)},
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil && strings.Contains(fd.Doc.Text(), "Deprecated:") {
					pass.ExportObjectFact(pass.TypesInfo.Defs[fd.Name], new(deprecatedFact))
				}
			}
		}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if fn, ok := pass.ObjectOf(call.Fun).(*types.Func); ok && pass.ImportObjectFact(fn, new(deprecatedFact)) {
						pass.Reportf(call.Pos(), "call to deprecated %s", fn.Name())
					}
				}
				return true
			})
		}
		return nil
	},
}

// lint runs Check over testdata/mod, a module of its own: dep
// declares a deprecated function, user calls it, clean does not, and
// broken does not type-check.
func lint(patterns ...string) (code int, stdout, stderr string) {
	var out, errs bytes.Buffer
	code = checker.Check([]*analysis.Analyzer{deprecated}, filepath.Join("testdata", "mod"), patterns, &out, &errs)
	return code, out.String(), errs.String()
}

func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(s, "\n"), "\n")
}

// TestDependencyFacts lints the dependent alone. Its finding needs the fact
// that the quiet pass over dep exported; dep's own finding stays quiet
// until dep is a target too.
func TestDependencyFacts(t *testing.T) {
	code, out, errs := lint("./user")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errs)
	}
	got := lines(out)
	want := filepath.Join("user", "user.go") + ":8:2: [deprecated] call to deprecated Old"
	if len(got) != 1 || !strings.HasSuffix(got[0], want) {
		t.Fatalf("output %q, want one line ending %q", out, want)
	}

	code, out, errs = lint("./dep", "./user")
	if code != 1 || len(lines(out)) != 2 || !strings.Contains(out, filepath.Join("dep", "dep.go")+":16:2: [deprecated]") {
		t.Fatalf("dep as a target: exit %d, output %q (stderr %q), want dep's finding as well", code, out, errs)
	}
}

// TestProblemMatcher checks a finding's line against the regexp CI's
// problem matcher annotates pull requests with.
func TestProblemMatcher(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "..", ".github", "vkg-lint-problem-matcher.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp                            string
				File, Line, Column, Code, Message int
			}
		}
	}
	if err := json.Unmarshal(data, &cfg); err != nil {
		t.Fatal(err)
	}
	p := cfg.ProblemMatcher[0].Pattern[0]
	re := regexp.MustCompile(p.Regexp)

	_, out, _ := lint("./user")
	m := re.FindStringSubmatch(strings.TrimSuffix(out, "\n"))
	if m == nil {
		t.Fatalf("%q does not match the problem matcher %q", out, p.Regexp)
	}
	if !strings.HasSuffix(m[p.File], filepath.Join("user", "user.go")) || m[p.Line] != "8" || m[p.Column] != "2" ||
		m[p.Code] != "deprecated" || m[p.Message] != "call to deprecated Old" {
		t.Fatalf("problem matcher read file %q line %q col %q code %q message %q", m[p.File], m[p.Line], m[p.Column], m[p.Code], m[p.Message])
	}
}

func TestCleanExitsZero(t *testing.T) {
	if code, out, errs := lint("./clean"); code != 0 || out != "" || errs != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and no output", code, out, errs)
	}
}

func TestTypeErrorExitsTwo(t *testing.T) {
	code, out, errs := lint("./broken")
	if code != 2 || out != "" || errs == "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 2 with the error on stderr", code, out, errs)
	}
}
