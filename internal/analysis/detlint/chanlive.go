package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"columbia/internal/analysis"
	"columbia/internal/analysis/ir"
)

// ChanLive enforces the shutdown contract of the vmpi engine and the dist
// supervisor: when a run fails with a RunError (or the supervisor's
// context is cancelled), the stop token is broadcast and every goroutine
// must observe it and unwind — otherwise it leaks across sweep points. A
// goroutine can only outlive that broadcast while it is blocked, so for
// each goroutine body started in vmpi or dist (function literal or named
// same-package function) chanlive solves a forward must-observed dataflow
// problem over the CFG — the fact is "the stop token has been observed on
// every path to here" — and reports any blocking channel send, receive,
// range over a channel, Wait call, or default-less select with no stop
// case that executes while the fact is still false. Observations are
// references to the package's stopToken type, stopping/stopped flags,
// receives from stop/done/quit channels (ctx.Done() included), and calls
// to same-package functions that make one. Test files are exempt.
var ChanLive = &analysis.Analyzer{
	Name: "chanlive",
	Doc:  "every blocking op in vmpi/dist goroutines must be dominated by a stop-token observation",
	Run:  runChanLive,
}

func runChanLive(pass *analysis.Pass) error {
	if !goroutinePackages[scopeName(pass.Pkg)] {
		return nil
	}
	tok, _ := pass.Pkg.Scope().Lookup("stopToken").(*types.TypeName)
	decls := declIndex(pass.TypesInfo, pass.Files)
	obs := &observer{info: pass.TypesInfo, tok: tok}
	obs.stopObservingFuncs(decls)

	seen := make(map[*ast.BlockStmt]bool)
	type finding struct {
		pos  token.Pos
		what string
	}
	var findings []finding
	analyze := func(body *ast.BlockStmt) {
		if body == nil || seen[body] {
			return
		}
		seen[body] = true
		analyzeGoroutineBody(body, obs, func(pos token.Pos, what string) {
			findings = append(findings, finding{pos, what})
		})
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
				analyze(lit.Body)
				return true
			}
			if fn := callee(pass.TypesInfo, gs.Call); fn != nil {
				if fd := decls[fn]; fd != nil {
					analyze(fd.Body)
				}
			}
			return true
		})
	}
	sort.Slice(findings, func(i, j int) bool { return findings[i].pos < findings[j].pos })
	for _, f := range findings {
		pass.Reportf(f.pos,
			"%s in a goroutine before any stop-token observation on this path — on RunError shutdown the goroutine can block forever and leak across sweep points; observe the stop token (stopToken, a stop/done channel, ctx.Done()) on every path first, or justify with //detlint:allow chanlive <reason>",
			f.what)
	}
	return nil
}

// analyzeGoroutineBody solves must-observed over one goroutine body's CFG
// and reports each blocking operation executing while the fact is false.
func analyzeGoroutineBody(body *ast.BlockStmt, obs *observer, report func(token.Pos, string)) {
	g := ir.New(body)
	reach := g.Reachable()
	selects := classifySelects(g, obs)

	transfer := func(b *ir.Block, in bool) bool {
		observed := in
		for _, n := range b.Nodes {
			if obs.nodeObserves(n) {
				observed = true
			}
		}
		if s := selects[b]; s != nil && s.observes {
			observed = true
		}
		return observed
	}
	facts := ir.Solve(g, ir.Problem[bool]{
		Dir:      ir.Forward,
		Boundary: false,
		Init:     true, // lattice top for a must-analysis
		Meet:     func(a, b bool) bool { return a && b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: transfer,
	})

	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		observed := facts.In[b]
		for i, n := range b.Nodes {
			comm := b.Kind == "select.case" && i == 0
			if !observed && !comm {
				for _, op := range obs.blockingOps(n) {
					report(op.pos, op.what)
				}
			}
			if obs.nodeObserves(n) {
				observed = true
			}
		}
		if s := selects[b]; s != nil {
			if s.blocking && !observed {
				report(s.pos, "select with no stop case and no default")
			}
			if s.observes {
				observed = true
			}
		}
	}
}

// selectFacts summarizes one select head: whether the select as a whole
// observes the stop token (some comm case receives it — the select is the
// listen point, so every clause continues observed) and whether it blocks
// unobserved (no default and no observing comm).
type selectFacts struct {
	observes bool
	blocking bool
	pos      token.Pos
}

// classifySelects inspects each select branch head's clause blocks, which
// hold the communication statements.
func classifySelects(g *ir.Graph, obs *observer) map[*ir.Block]*selectFacts {
	out := make(map[*ir.Block]*selectFacts)
	for _, br := range g.Branches {
		if br.Kind != "select" {
			continue
		}
		s := &selectFacts{}
		hasDefault := false
		for _, cl := range br.Block.Succs {
			switch cl.Kind {
			case "select.default":
				hasDefault = true
			case "select.case":
				if len(cl.Nodes) == 0 {
					continue
				}
				comm := cl.Nodes[0]
				if s.pos == token.NoPos {
					s.pos = comm.Pos()
				}
				if obs.nodeObserves(comm) {
					s.observes = true
				}
			}
		}
		s.blocking = !hasDefault && !s.observes && s.pos != token.NoPos
		out[br.Block] = s
	}
	return out
}

// An observer decides which nodes count as observing the stop token and
// which functions do so transitively.
type observer struct {
	info  *types.Info
	tok   *types.TypeName // the package's stopToken type, if declared
	funcs map[*types.Func]bool
}

// observes reports whether one node, taken alone, observes the stop
// token: a reference to the stopToken type (including panic(stopToken{})),
// a stopping/stopped flag, a receive from or range over a stop/done/quit
// channel (ctx.Done() included), or a call to a stop-observing function.
func (o *observer) observes(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.Ident:
		return o.tok != nil && (o.info.Uses[x] == o.tok || o.info.Defs[x] == o.tok) ||
			x.Name == "stopping" || x.Name == "stopped"
	case *ast.UnaryExpr:
		return x.Op == token.ARROW && recvObserves(x.X)
	case *ast.RangeStmt:
		return o.rangesOverChan(x) && recvObserves(x.X)
	case *ast.CallExpr:
		fn := callee(o.info, x)
		return fn != nil && o.funcs[fn]
	}
	return false
}

// nodeObserves reports whether a block node observes the stop token,
// shallowly: nested function literals are their own goroutine roots or
// closures, not this path.
func (o *observer) nodeObserves(n ast.Node) bool {
	return anyNode(n, ir.Walk, o.observes)
}

// anyNode reports whether walk visits some node satisfying pred.
func anyNode(n ast.Node, walk func(ast.Node, func(ast.Node) bool), pred func(ast.Node) bool) bool {
	found := false
	walk(n, func(sub ast.Node) bool {
		found = found || pred(sub)
		return !found
	})
	return found
}

// rangesOverChan reports whether the range statement iterates a channel.
func (o *observer) rangesOverChan(rs *ast.RangeStmt) bool {
	t := o.info.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// recvObserves reports whether receiving from the expression observes the
// stop token, by the leaf name of the channel source: stop, done or quit
// spellings (e.stop, stopc, ctx.Done(), quitCh, ...).
func recvObserves(e ast.Expr) bool {
	name := strings.ToLower(leafName(e))
	return strings.Contains(name, "stop") || strings.Contains(name, "done") || strings.Contains(name, "quit")
}

// leafName extracts the rightmost identifier of a channel expression.
func leafName(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.CallExpr:
		return leafName(x.Fun)
	case *ast.IndexExpr:
		return leafName(x.X)
	}
	return ""
}

type blockingOp struct {
	pos  token.Pos
	what string
}

// blockingOps lists the node's potentially-blocking operations: channel
// sends, receives and ranges over channels that are not themselves stop
// observations, and zero-argument Wait calls. Defer statements contribute
// nothing here — their calls replay in the exit block, where they are
// scanned.
func (o *observer) blockingOps(n ast.Node) []blockingOp {
	if _, ok := n.(*ast.DeferStmt); ok {
		return nil
	}
	var ops []blockingOp
	ir.Walk(n, func(sub ast.Node) bool {
		switch x := sub.(type) {
		case *ast.SendStmt:
			ops = append(ops, blockingOp{x.Arrow, "blocking channel send"})
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !recvObserves(x.X) {
				ops = append(ops, blockingOp{x.OpPos, "blocking channel receive"})
			}
		case *ast.RangeStmt:
			if o.rangesOverChan(x) && !recvObserves(x.X) {
				ops = append(ops, blockingOp{x.For, "range over a channel (a blocking receive per iteration)"})
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok &&
				sel.Sel.Name == "Wait" && len(x.Args) == 0 {
				ops = append(ops, blockingOp{x.Pos(), "blocking Wait call"})
			}
		}
		return true
	})
	return ops
}

// stopObservingFuncs computes, by fixed point, the package functions whose
// bodies (nested literals included) observe the stop token directly or
// call another observing function — the interprocedural half of the
// observation predicate.
func (o *observer) stopObservingFuncs(decls map[*types.Func]*ast.FuncDecl) {
	o.funcs = make(map[*types.Func]bool)
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if !o.funcs[fn] && fd.Body != nil && anyNode(fd.Body, ast.Inspect, o.observes) {
				o.funcs[fn] = true
				changed = true
			}
		}
	}
}
