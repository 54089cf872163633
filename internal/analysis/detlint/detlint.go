// Package detlint is the repository's static-analysis suite: eight
// analyzers guarding the paper reproduction's machine-checked promises —
// byte-identical experiment tables regardless of -j or -workers, memo-cache
// keys (vmpi.Config.Fingerprint) that change whenever any result-relevant
// input does, and the communication and shutdown discipline that keeps a
// sweep from deadlocking or leaking goroutines:
//
//   - fingerprintcover: every field of a struct with a Fingerprint method
//     (vmpi.Config, fault.Plan) — and of the nested structs it enumerates —
//     must be read inside its fingerprint functions, so a newly added
//     field cannot silently alias cache entries.
//   - nodeterm: simulator packages must not read the wall clock
//     (time.Now, time.Since), draw from the global math/rand source, or
//     let map iteration order leak into output.
//   - floatcmp: no ==/!= on floating-point operands in simulation core;
//     exact comparisons must be epsilon helpers or justified suppressions.
//   - collsplit: no collective call reachable only under a rank-dependent
//     branch — the conditional-collective deadlock the commsan runtime
//     sanitizer reports as a subset-collective violation.
//   - tagpair: no literal send/recv tag that can never match within its
//     package (a leaked send or a forever-blocked receive).
//   - lockorder: no double acquisition, inconsistent lock order, or
//     blocking channel operation while a mutex is held.
//   - wirecover: every exported field of a //perflint:wire struct is read
//     by its cover functions, so nothing rides the wire unconsumed.
//   - chanlive: every blocking operation in a vmpi or dist goroutine comes
//     after a stop-token observation on every path, so no goroutine
//     outlives a RunError shutdown.
//
// A finding is silenced by a `//detlint:allow <analyzer> <reason>` comment
// on (or immediately above) the offending line; stale allows are
// themselves diagnostics. See package checker for the exact protocol and
// DESIGN.md §6 for the audit of what each analyzer has caught. The wire
// schema, which needs a whole-repository view, is gated by cmd/perflint,
// not by this suite.
package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"columbia/internal/analysis"
)

// Suite is every analyzer, in reporting order.
var Suite = []*analysis.Analyzer{FingerprintCover, NoDeterm, FloatCmp, Collsplit, Tagpair, LockOrder, WireCover, ChanLive}

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

// goroutinePackages are the packages whose goroutines must unwind on a
// stop-token broadcast; chanlive applies only there.
var goroutinePackages = map[string]bool{
	"vmpi": true,
	"dist": true,
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
// cmd/perflint freezes the struct's shape in the wire schema.
const wireDirective = "//perflint:wire"

// WireMarker extracts the //perflint:wire directive from a doc comment
// group, returning the text after the keyword and whether the directive
// is present.
func WireMarker(doc *ast.CommentGroup) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, wireDirective)
		if !ok {
			continue
		}
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // e.g. //perflint:wired — not this directive
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}

// pkgFunc reports whether fn is the package-level function path.name.
func pkgFunc(fn *types.Func, path, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path &&
		fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// structOf unwraps t to its struct underlying, through one level of
// pointer and any named/alias chain. It returns nil for non-structs.
func structOf(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	s, _ := t.Underlying().(*types.Struct)
	return s
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

// namedStructOf is structOf restricted to named struct types; it returns
// the name the struct is declared under, for diagnostics.
func namedStructOf(t types.Type) (*types.Named, *types.Struct) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	s, ok := n.Underlying().(*types.Struct)
	if !ok {
		return nil, nil
	}
	return n, s
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
