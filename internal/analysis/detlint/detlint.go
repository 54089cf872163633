// Package detlint is the repository's static-analysis suite: four
// analyzers guarding the paper reproduction's machine-checked promises —
// byte-identical experiment tables regardless of -j or -workers, and the
// lock discipline and wire protocol that a sweep relies on:
//
//   - nodeterm: simulator packages must not read the wall clock
//     (time.Now, time.Since), draw from the global math/rand source, or
//     let map iteration order leak into output.
//   - floatcmp: no ==/!= on floating-point operands in simulation core;
//     exact comparisons must be epsilon helpers or justified suppressions.
//   - lockorder: no double acquisition, inconsistent lock order, or
//     blocking channel operation while a mutex is held.
//   - wirecover: every exported field of a //detlint:wire struct is read
//     by its cover functions, so nothing rides the wire unconsumed.
//
// Three invariants are owned by runtime tests instead (DESIGN.md §6):
// communication correctness (unmatched sends, collectives only some ranks
// enter) by the commsan sanitizer, which runs every rank program in the
// tests (DESIGN.md §7); goroutine lifetimes by the leak tests in vmpi and
// dist; and memo-cache key coverage by vmpi's
// TestFingerprintCoversEveryField, which requires every field of every
// type with a Fingerprint method to move its key.
//
// A finding is silenced by a `//detlint:allow <analyzer> <reason>` comment
// on (or immediately above) the offending line; stale allows are
// themselves diagnostics. See package checker for the exact protocol and
// DESIGN.md §6 for the audit of what each analyzer has caught. The wire
// schema, which needs a whole-repository view, is a golden file checked
// by dist's TestWireSchema, not by this suite.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"columbia/internal/analysis"
)

// Suite is every analyzer, in reporting order.
var Suite = []*analysis.Analyzer{NoDeterm, FloatCmp, LockOrder, WireCover}

// Names returns the suite's analyzer names, the vocabulary valid in
// //detlint:allow comments.
func Names() []string {
	names := make([]string, len(Suite))
	for i, a := range Suite {
		names[i] = a.Name
	}
	return names
}

// simPackages are the simulator packages whose outputs feed the paper's
// tables; nodeterm and floatcmp apply only there. Pure measurement
// scaffolding (package par's real wall-clock engine, the workload
// generators) is deliberately outside the set.
var simPackages = map[string]bool{
	"vmpi":     true,
	"core":     true,
	"sweep":    true,
	"machine":  true,
	"fault":    true,
	"noise":    true,
	"netmodel": true,
	"report":   true,
}

// scopeName reduces a package to the name scope rules match on: the last
// import-path element, with the external-test suffix stripped so
// foo_test packages inherit foo's scope.
func scopeName(pkg *types.Package) string {
	path := pkg.Path()
	if i := strings.IndexAny(path, " ["); i >= 0 {
		path = path[:i] // test-variant decorations like "p [p.test]"
	}
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		path = path[i+1:]
	}
	return strings.TrimSuffix(path, "_test")
}

// inSimScope reports whether the pass's package is one of the simulator
// packages.
func inSimScope(pass *analysis.Pass) bool {
	return simPackages[scopeName(pass.Pkg)]
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}

// callee resolves a call's callee to its function or method object, or nil
// for indirect calls, builtins and conversions. Methods of generic types
// and explicitly instantiated generic functions resolve to their origin
// (uninstantiated) object, so callgraph keys are stable across
// instantiations.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			fn, _ = info.Uses[id].(*types.Func)
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			fn, _ = info.Uses[id].(*types.Func)
		}
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// declIndex maps every function and method object declared in the files
// to its declaration.
func declIndex(info *types.Info, files []*ast.File) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				idx[fn.Origin()] = fd
			}
		}
	}
	return idx
}

// closure returns the declared functions reachable from roots through
// in-package static calls, roots included. Dynamic calls through function
// values and calls into other packages end the walk.
func closure(info *types.Info, decls map[*types.Func]*ast.FuncDecl, roots []*types.Func) map[*types.Func]*ast.FuncDecl {
	reach := make(map[*types.Func]*ast.FuncDecl)
	var visit func(fn *types.Func)
	visit = func(fn *types.Func) {
		if fn == nil {
			return
		}
		fn = fn.Origin()
		fd, ok := decls[fn]
		if !ok {
			return
		}
		if _, seen := reach[fn]; seen {
			return
		}
		reach[fn] = fd
		if fd.Body == nil {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				visit(callee(info, call))
			}
			return true
		})
	}
	for _, r := range roots {
		visit(r)
	}
	return reach
}

// wireDirective marks a gob wire struct, optionally followed by the names
// of its cover functions: wirecover checks the fields are consumed, and
// dist's TestWireSchema freezes the struct's shape in the wire schema.
const wireDirective = "//detlint:wire"

// WireMarker extracts the //detlint:wire directive from the doc comment of
// ts, declared in gd (whose doc stands in for an unparenthesized
// declaration's), returning the text after the keyword and whether the
// directive is present.
func WireMarker(gd *ast.GenDecl, ts *ast.TypeSpec) (string, bool) {
	doc := ts.Doc
	if doc == nil && len(gd.Specs) == 1 {
		doc = gd.Doc
	}
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, wireDirective)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // e.g. //detlint:wired — not this directive
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// derefType strips every level of pointer from t.
func derefType(t types.Type) types.Type {
	for {
		p, ok := t.Underlying().(*types.Pointer)
		if !ok {
			return t
		}
		t = p.Elem()
	}
}

// funcBodies collects every function body in the file, outermost first,
// so the smallest enclosing body of a position can be found.
func funcBodies(f *ast.File) []*ast.BlockStmt {
	var bodies []*ast.BlockStmt
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				bodies = append(bodies, fn.Body)
			}
		case *ast.FuncLit:
			bodies = append(bodies, fn.Body)
		}
		return true
	})
	return bodies
}

// enclosingBody returns the smallest collected body containing pos.
func enclosingBody(bodies []*ast.BlockStmt, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	for _, b := range bodies {
		if b.Pos() <= pos && pos < b.End() {
			if best == nil || b.Pos() > best.Pos() {
				best = b
			}
		}
	}
	return best
}
