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

// ChanLive enforces the shutdown contract of the dist supervisor: when
// its context is cancelled or a lane is abandoned, every goroutine must
// observe that and unwind, or it leaks across sweep points. A goroutine
// can only outlive the stop while it is blocked, so for each goroutine
// body started in dist (function literal or named same-package function)
// chanlive solves a forward must-observed dataflow problem over the CFG —
// the fact is "the stop has been observed on every path to here" — and
// reports any blocking channel send, receive, range over a channel, Wait
// call, or default-less select with no stop case that executes while the
// fact is still false. Observations are receives from stop/done/quit
// channels (ctx.Done() included) and calls to same-package functions that
// make one. Test files are exempt.
var ChanLive = &analysis.Analyzer{
	Name: "chanlive",
	Doc:  "every blocking op in dist goroutines must be dominated by a stop observation",
	Run:  runChanLive,
}

func runChanLive(pass *analysis.Pass) error {
	if scopeName(pass.Pkg) != "dist" {
		return nil
	}
	decls := declIndex(pass.TypesInfo, pass.Files)
	obs := &observer{info: pass.TypesInfo}
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
			"%s in a goroutine before any stop observation on this path — once the supervisor stops listening the goroutine can block forever and leak across sweep points; observe a stop/done channel or ctx.Done() on every path first, or justify with //detlint:allow chanlive <reason>",
			f.what)
	}
	return nil
}

// chanliveWhat names each kind of blocking operation in a finding.
var chanliveWhat = [...]string{
	blockSend:   "blocking channel send",
	blockRecv:   "blocking channel receive",
	blockRange:  "range over a channel (a blocking receive per iteration)",
	blockSelect: "select with no stop case and no default",
	blockWait:   "blocking Wait call",
}

// analyzeGoroutineBody solves must-observed over one goroutine body's CFG
// and reports each blocking operation (blockingOps) executing while the
// fact is false. A receive from or range over a stop channel is itself an
// observation, and so is a select with a case that makes one.
func analyzeGoroutineBody(body *ast.BlockStmt, obs *observer, report func(token.Pos, string)) {
	g := ir.New(body)
	reach := g.Reachable()
	selects := classifySelects(g, obs)

	transfer := func(b *ir.Block, in bool) bool {
		observed := in || selects[b].observes
		for _, n := range b.Nodes {
			observed = observed || obs.nodeObserves(n)
		}
		return observed
	}
	facts := ir.Solve(g, ir.Problem[bool]{
		Boundary: false,
		Init:     true, // lattice top for a must-analysis
		Meet:     func(a, b bool) bool { return a && b },
		Equal:    func(a, b bool) bool { return a == b },
		Transfer: transfer,
	})

	ops := blockingOps(obs.info, g)
	for _, b := range g.Blocks {
		if !reach[b] {
			continue
		}
		observed, next := facts.In[b], 0
		for _, op := range ops[b] {
			for ; next < op.node; next++ {
				observed = observed || obs.nodeObserves(b.Nodes[next])
			}
			pos, stops := op.pos, op.ch != nil && recvObserves(op.ch)
			if op.kind == blockSelect {
				pos, stops = selects[b].pos, selects[b].observes
			}
			if !observed && !stops {
				report(pos, chanliveWhat[op.kind])
			}
		}
	}
}

// selectFacts summarizes one select head: whether some case receives the
// stop (the select is then the listen point, so every clause continues
// observed), and where a finding goes — the first case, or the `select`
// keyword when there is none.
type selectFacts struct {
	observes bool
	pos      token.Pos
}

// classifySelects inspects each select branch head's clause blocks, which
// hold the communication statements.
func classifySelects(g *ir.Graph, obs *observer) map[*ir.Block]selectFacts {
	out := make(map[*ir.Block]selectFacts)
	for _, br := range g.Branches {
		if br.Kind != "select" {
			continue
		}
		var s selectFacts
		for _, cl := range br.Block.Succs {
			if cl.Kind != "select.case" {
				continue
			}
			if s.pos == token.NoPos {
				s.pos = cl.Nodes[0].Pos()
			}
			s.observes = s.observes || obs.nodeObserves(cl.Nodes[0])
		}
		if s.pos == token.NoPos {
			s.pos = br.Pos
		}
		out[br.Block] = s
	}
	return out
}

// An observer decides which nodes count as observing the stop and which
// functions do so transitively.
type observer struct {
	info  *types.Info
	funcs map[*types.Func]bool
}

// observes reports whether one node, taken alone, observes the stop: a
// receive from or range over a stop/done/quit channel (ctx.Done()
// included), or a call to a stop-observing function.
func (o *observer) observes(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.UnaryExpr:
		return x.Op == token.ARROW && recvObserves(x.X)
	case *ast.RangeStmt:
		return rangesOverChan(o.info, x) && recvObserves(x.X)
	case *ast.CallExpr:
		fn := callee(o.info, x)
		return fn != nil && o.funcs[fn]
	}
	return false
}

// nodeObserves reports whether a block node observes the stop,
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

// recvObserves reports whether receiving from the expression observes the
// stop, by the leaf name of the channel source: stop, done or quit
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

// stopObservingFuncs computes, by fixed point, the package functions whose
// bodies (nested literals included) observe the stop directly or
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
