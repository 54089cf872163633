package detlint

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"columbia/internal/analysis"
	"columbia/internal/analysis/analysistest"
	"columbia/internal/analysis/checker"
)

// TestCollsplitDifferential pins the CFG port of collsplit to the original
// lexical walker: on every committed fixture the two formulations must
// produce bit-identical diagnostics — same file, line, column and message.
// The CFG version is allowed to diverge only on shapes the fixtures do not
// contain (early returns out of guarded branches, dead code), where the
// lexical nesting model has no answer at all.
func TestCollsplitDifferential(t *testing.T) {
	pkg := analysistest.Load(t, filepath.Join("testdata", "collsplit"), "coll")
	run := func(name string, runFn func(*analysis.Pass) error) []string {
		t.Helper()
		a := &analysis.Analyzer{Name: "collsplit", Doc: "differential instance", Run: runFn}
		diags, err := checker.Run(pkg, []*analysis.Analyzer{a}, Names())
		if err != nil {
			t.Fatalf("%s: checker.Run: %v", name, err)
		}
		var out []string
		for _, d := range diags {
			p := pkg.Fset.Position(d.Pos)
			out = append(out, fmt.Sprintf("%s:%d:%d %s: %s", filepath.Base(p.Filename), p.Line, p.Column, d.Analyzer, d.Message))
		}
		sort.Strings(out)
		return out
	}
	cfgDiags := run("cfg", runCollsplit)
	lexDiags := run("lexical", runCollsplitLexical)
	if len(cfgDiags) != len(lexDiags) {
		t.Fatalf("CFG and lexical collsplit disagree: %d vs %d diagnostics\ncfg:\n%s\nlexical:\n%s",
			len(cfgDiags), len(lexDiags), strings.Join(cfgDiags, "\n"), strings.Join(lexDiags, "\n"))
	}
	for i := range cfgDiags {
		if cfgDiags[i] != lexDiags[i] {
			t.Errorf("diagnostic %d differs:\ncfg:     %s\nlexical: %s", i, cfgDiags[i], lexDiags[i])
		}
	}
}

// runCollsplitLexical is the original AST formulation, retained as the
// differential oracle: TestCollsplitDifferential asserts it and the CFG
// formulation produce bit-identical diagnostics on every fixture.
func runCollsplitLexical(pass *analysis.Pass) error {
	forEachTopLevelBody(pass, func(body *ast.BlockStmt) {
		checkCollsplitLexical(pass, body)
	})
	return nil
}

// checkCollsplitLexical walks one function body tracking whether the
// current position is lexically inside a rank-dependent branch, and
// reports any collective call found there.
func checkCollsplitLexical(pass *analysis.Pass, body *ast.BlockStmt) {
	seed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		return ok && isRankCall(pass, call)
	}
	tainted := taint(pass.TypesInfo, body, seed)
	dep := func(e ast.Expr) bool { return depends(pass.TypesInfo, tainted, seed, e) }
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		switch s := n.(type) {
		case nil:
			return
		case *ast.IfStmt:
			if s.Init != nil {
				walk(s.Init, guarded)
			}
			walk(s.Cond, guarded)
			g := guarded || dep(s.Cond)
			walk(s.Body, g)
			walk(s.Else, g)
			return
		case *ast.SwitchStmt:
			if s.Init != nil {
				walk(s.Init, guarded)
			}
			if s.Tag != nil {
				walk(s.Tag, guarded)
			}
			g := guarded || (s.Tag != nil && dep(s.Tag))
			if !g {
				for _, cc := range s.Body.List {
					for _, e := range cc.(*ast.CaseClause).List {
						if dep(e) {
							g = true
						}
					}
				}
			}
			walk(s.Body, g)
			return
		case *ast.ForStmt:
			if s.Init != nil {
				walk(s.Init, guarded)
			}
			if s.Cond != nil {
				walk(s.Cond, guarded)
			}
			// A rank-dependent trip count runs the body a different number
			// of times per rank — the same subset-collective hazard.
			g := guarded || (s.Cond != nil && dep(s.Cond))
			if s.Post != nil {
				walk(s.Post, g)
			}
			walk(s.Body, g)
			return
		case *ast.CallExpr:
			if guarded {
				if name, ok := collectiveCall(pass, s); ok {
					pass.Reportf(s.Pos(), "collective %s is reachable only under a rank-dependent branch; if any rank takes another path the job deadlocks — hoist it, or justify with //detlint:allow collsplit <reason>", name)
				}
			}
		}
		// Generic descent preserving the guard.
		children(n, func(c ast.Node) { walk(c, guarded) })
	}
	walk(body, false)
}

// children invokes fn on n's immediate child nodes.
func children(n ast.Node, fn func(ast.Node)) {
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}
