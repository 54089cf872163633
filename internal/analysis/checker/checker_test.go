package checker

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"columbia/internal/analysis"
)

// firstDecl reports one diagnostic at the first declaration of each file.
var firstDecl = &analysis.Analyzer{
	Name: "firstdecl",
	Doc:  "flags the first declaration",
	Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			if len(f.Decls) > 0 {
				pass.Reportf(f.Decls[0].Pos(), "first declaration here")
			}
		}
		return nil
	},
}

// boom panics, standing in for an analyzer bug.
var boom = &analysis.Analyzer{
	Name: "boom",
	Doc:  "panics",
	Run: func(pass *analysis.Pass) error {
		var nilFile *ast.File
		_ = nilFile.Name.Name // nil dereference, a realistic analyzer bug
		return nil
	},
}

// failing returns an error (analyzer infrastructure failure, not a finding).
var failing = &analysis.Analyzer{
	Name: "failing",
	Doc:  "errors out",
	Run:  func(*analysis.Pass) error { return errors.New("infrastructure exploded") },
}

// parse returns a one-file package p. None of the analyzers here read
// type information, so it is left unchecked.
func parse(t *testing.T) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", "package p\n\nfunc F() int { return 1 }\n", parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{Fset: fset, Files: []*ast.File{f}, Pkg: types.NewPackage("p", "p"), Info: &types.Info{}}
}

// render formats diagnostics one per line as "file:line:col: analyzer: message".
func render(pkg *Package, diags []Diag) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(pkg.Fset.Position(d.Pos).String() + ": " + d.Analyzer + ": " + d.Message + "\n")
	}
	return b.String()
}

// TestAnalyzerPanicBecomesDiagnostic covers the containment promise: a
// panicking analyzer degrades to a diagnostic under its own name at the
// package clause, never a crash, and the other analyzers' findings
// survive alongside it.
func TestAnalyzerPanicBecomesDiagnostic(t *testing.T) {
	pkg := parse(t)
	diags, err := Run(pkg, []*analysis.Analyzer{boom, firstDecl}, nil)
	if err != nil {
		t.Fatalf("Run: %v, want the panic contained", err)
	}
	got := render(pkg, diags)
	if !strings.Contains(got, "p.go:1:1: boom: analyzer panicked") {
		t.Errorf("diagnostics:\n%s want boom's contained panic at the package clause", got)
	}
	if !strings.Contains(got, "p.go:3:1: firstdecl: first declaration here") {
		t.Errorf("diagnostics:\n%s want the healthy analyzer's finding to survive", got)
	}
}

// TestAnalyzerErrorExitOne distinguishes an analyzer error (an
// infrastructure failure, which aborts the run) from findings: Run
// returns the error with the analyzer and the package named, and no
// diagnostics.
func TestAnalyzerErrorExitOne(t *testing.T) {
	diags, err := Run(parse(t), []*analysis.Analyzer{firstDecl, failing}, nil)
	if err == nil || diags != nil {
		t.Fatalf("Run = %v, %v; want an error and no diagnostics", diags, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "analyzer failing on p: infrastructure exploded") {
		t.Errorf("error %q, want the analyzer, the package and the cause", msg)
	}
}

// TestRunRejectsInvalidSuite covers analysis.Validate, which Run applies
// before any analyzer runs.
func TestRunRejectsInvalidSuite(t *testing.T) {
	for _, tc := range []struct {
		name  string
		suite []*analysis.Analyzer
		want  string
	}{
		{"duplicate name", []*analysis.Analyzer{firstDecl, firstDecl}, `duplicate analyzer name "firstdecl"`},
		{"missing Run", []*analysis.Analyzer{{Name: "norun", Doc: "has no Run"}}, "needs both a Name and a Run function"},
	} {
		diags, err := Run(parse(t), tc.suite, nil)
		if err == nil || diags != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Run = %v, %v; want an error containing %q", tc.name, diags, err, tc.want)
		}
	}
}
