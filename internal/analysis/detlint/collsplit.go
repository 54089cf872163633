package detlint

import (
	"go/ast"
	"go/types"

	"columbia/internal/analysis"
	"columbia/internal/analysis/ir"
)

// Collsplit flags a collective call that is reachable only under a
// rank-dependent branch — the classic conditional-collective bug: if one
// rank's condition differs, a strict subset of ranks enters the collective
// and the job deadlocks (the commsan runtime sanitizer reports exactly this
// as a subset-collective violation; this analyzer catches it before any run
// happens). A branch is rank-dependent when its condition (or a switch tag,
// a case expression, or a for-loop condition) reads the rank: it calls a
// zero-argument Rank method, or mentions a local variable assigned from
// one. Point-to-point calls under rank branches are the normal SPMD pattern
// and are never flagged; test files are exempt. A split that is safe by
// construction (every arm still enters the collective) is silenced with
// //detlint:allow collsplit <reason>.
//
// Guardedness is computed on the control-flow graph: a block is guarded by
// a rank-dependent branch head when it is reachable from the head but does
// not postdominate it — i.e. some path from the branch skips it. The
// original lexical walker survives only in the tests, as the reference
// TestCollsplitDifferential holds this formulation to: bit-identical
// diagnostics on the fixtures. The CFG formulation additionally
// understands early returns and dead code, which lexical nesting cannot
// express.
var Collsplit = &analysis.Analyzer{
	Name: "collsplit",
	Doc:  "flag collective calls guarded by rank-dependent branches",
	Run:  runCollsplit,
}

// collectiveFuncs are the package-level collective entry points of the par
// library (and any workload-local helper sharing their names).
var collectiveFuncs = map[string]bool{
	"Bcast": true, "BcastBytes": true,
	"Reduce":    true,
	"Allreduce": true, "AllreduceBytes": true, "AllreduceSum": true,
	"Allgather": true, "AllgatherBytes": true,
	"Alltoall": true, "AlltoallBytes": true,
}

func runCollsplit(pass *analysis.Pass) error {
	forEachTopLevelBody(pass, func(body *ast.BlockStmt) {
		checkCollsplitCFG(pass, body)
	})
	return nil
}

// forEachTopLevelBody visits each non-test top-level function body once:
// declarations, and function literals in package-level initializers.
// Nested literals are reached by the checkers themselves, so they must not
// be re-entered separately.
func forEachTopLevelBody(pass *analysis.Pass, check func(*ast.BlockStmt)) {
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					check(d.Body)
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					if fl, ok := n.(*ast.FuncLit); ok {
						check(fl.Body)
						return false
					}
					return true
				})
			}
		}
	}
}

// checkCollsplitCFG builds the body's control-flow graph and reports every
// collective call in a block guarded by a rank-dependent branch head.
func checkCollsplitCFG(pass *analysis.Pass, body *ast.BlockStmt) {
	// Seed the taint engine with direct Rank() reads over the whole
	// top-level body (nested literals included), exactly as the lexical
	// walker does, so the two formulations agree on rank-dependence.
	seed := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		return ok && isRankCall(pass, call)
	}
	tainted := taint(pass.TypesInfo, body, seed)
	dep := func(e ast.Expr) bool { return depends(pass.TypesInfo, tainted, seed, e) }

	var check func(body *ast.BlockStmt, forced bool)
	check = func(body *ast.BlockStmt, forced bool) {
		g := ir.New(body)
		guarded := rankGuardedBlocks(g, dep)
		for _, b := range g.Blocks {
			if b == g.Exit {
				continue // exit nodes replay deferred calls already seen at their registration
			}
			inGuard := forced || guarded[b]
			for _, n := range b.Nodes {
				ir.Walk(n, func(sub ast.Node) bool {
					switch x := sub.(type) {
					case *ast.FuncLit:
						check(x.Body, inGuard)
					case *ast.CallExpr:
						if !inGuard {
							return true
						}
						if name, ok := collectiveCall(pass, x); ok {
							pass.Reportf(x.Pos(), "collective %s is reachable only under a rank-dependent branch; if any rank takes another path the job deadlocks — hoist it, or justify with //detlint:allow collsplit <reason>", name)
						}
					}
					return true
				})
			}
		}
	}
	check(body, false)
}

// rankGuardedBlocks returns the blocks whose execution is conditional on a
// rank-dependent branch: reachable from a rank-dependent head without
// postdominating it. Range heads are never guards (iterating a collection
// is not a rank split), matching the lexical walker.
func rankGuardedBlocks(g *ir.Graph, dep func(ast.Expr) bool) map[*ir.Block]bool {
	pdom := ir.Postdominators(g)
	guarded := make(map[*ir.Block]bool)
	for _, br := range g.Branches {
		ranked := false
		switch br.Kind {
		case "if", "for":
			ranked = len(br.Conds) > 0 && dep(br.Conds[0])
		case "switch":
			// switch { case c.Rank() == 0: ... }: any rank-dependent case
			// (or tag) makes every clause's reachability rank-dependent.
			for _, c := range br.Conds {
				if dep(c) {
					ranked = true
					break
				}
			}
		}
		if !ranked {
			continue
		}
		for b := range ir.ReachableFrom(br.Block) {
			if !pdom[br.Block][b] {
				guarded[b] = true
			}
		}
	}
	return guarded
}

// collectiveCall reports whether the call enters a collective: a
// zero-argument Barrier method, or a package-level function named like a
// par collective.
func collectiveCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := callee(pass.TypesInfo, call)
	if fn == nil {
		return "", false
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		if fn.Name() == "Barrier" && len(call.Args) == 0 {
			return "Barrier", true
		}
		return "", false
	}
	if collectiveFuncs[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// isRankCall reports whether the call is a zero-argument method named Rank.
func isRankCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := callee(pass.TypesInfo, call)
	return fn != nil && fn.Name() == "Rank" && len(call.Args) == 0 &&
		fn.Type().(*types.Signature).Recv() != nil
}

// taint computes the body-local objects whose values derive from a seed
// expression, by fixed-point propagation over assignments and var
// declarations. A multi-value assignment from a single seed-dependent RHS
// taints every LHS (the conservative choice: which result carries the
// property is unknowable without per-function summaries).
func taint(info *types.Info, body *ast.BlockStmt, seed func(ast.Expr) bool) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	mark := func(lhs ast.Expr) bool {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return false
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil || tainted[obj] {
			return false
		}
		tainted[obj] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) == len(s.Rhs) {
					for i := range s.Lhs {
						if depends(info, tainted, seed, s.Rhs[i]) && mark(s.Lhs[i]) {
							changed = true
						}
					}
				} else if len(s.Rhs) == 1 && depends(info, tainted, seed, s.Rhs[0]) {
					for _, l := range s.Lhs {
						if mark(l) {
							changed = true
						}
					}
				}
			case *ast.ValueSpec:
				for i, v := range s.Values {
					if depends(info, tainted, seed, v) && i < len(s.Names) && mark(s.Names[i]) {
						changed = true
					}
				}
			}
			return true
		})
	}
	return tainted
}

// depends reports whether the expression carries the seeded property:
// some sub-expression satisfies seed, or mentions a tainted identifier.
func depends(info *types.Info, tainted map[types.Object]bool, seed func(ast.Expr) bool, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if x, ok := n.(ast.Expr); ok && seed != nil && seed(x) {
			found = true
			return false
		}
		if id, ok := n.(*ast.Ident); ok && tainted[info.Uses[id]] {
			found = true
			return false
		}
		return true
	})
	return found
}
