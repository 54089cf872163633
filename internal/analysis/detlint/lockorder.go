package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"columbia/internal/analysis"
	"columbia/internal/analysis/ir"
)

// LockOrder builds each package's lock graph and reports the three
// deadlock shapes a sharded-cache + supervisor + engine architecture can
// grow: re-acquiring a mutex already held (directly or through an
// in-package call), acquiring two mutexes in inconsistent orders on
// different paths (a cycle in the acquisition-order graph), and blocking
// on a channel operation — send, receive, select without default, range
// over a channel — while holding any lock, which couples the lock to
// every goroutine the channel talks to.
//
// Held sets come from a forward must-held problem over each function
// body's ir control-flow graph: meet is intersection, so a lock counts as
// held only where every path to that point holds it, and `defer
// mu.Unlock()` needs no special case because ir replays deferred calls in
// the exit block. What can block is blockingOps' decision. May-acquire and
// may-block summaries propagate over the in-package static callgraph to a
// fixed point. Lock identity is structural — "Type.field" for field mutexes, "pkg.var" for
// package-level ones, "func.name" for locals — so two *instances* of a
// type share an identity: what is ordered is the code path, not the
// runtime object. Every function body is its own root, starting with
// nothing held: declarations, and every function literal, nested or in a
// package-level initializer (a literal usually runs on another
// goroutine). Test files are exempt.
var LockOrder = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "flag inconsistent lock orders and locks held across channel operations",
	Run:  runLockOrder,
}

type lockID string

// heldInfo records where a held lock was taken.
type heldInfo struct {
	pos  token.Pos
	read bool // held via RLock
}

// heldSet is the must-held fact at a program point; nil means the point
// has not been reached yet.
type heldSet map[lockID]heldInfo

type acquisition struct {
	id   lockID
	held []lockID // locks already held at this acquisition
	pos  token.Pos
}

type callSite struct {
	callee *types.Func
	held   []lockID
	pos    token.Pos
}

// funcLock is one analyzed unit (function declaration or literal).
type funcLock struct {
	fn       *types.Func // nil for function literals
	acquires []acquisition
	calls    []callSite
	blocks   bool // contains a blocking channel operation
}

type lockWalker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	fname string
	res   *funcLock
	ops   map[*ir.Block][]blockingOp
}

func runLockOrder(pass *analysis.Pass) error {
	decls := declIndex(pass.TypesInfo, pass.Files)
	var units []*funcLock
	analyze := func(body *ast.BlockStmt, fname string, fn *types.Func) {
		w := &lockWalker{pass: pass, decls: decls, fname: fname, res: &funcLock{fn: fn}}
		w.analyze(body)
		units = append(units, w.res)
	}
	// literals analyzes every function literal under n, nested ones
	// included, naming their locals after the enclosing declaration.
	literals := func(n ast.Node, name string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				analyze(fl.Body, name+".func", nil)
			}
			return true
		})
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn, _ := pass.TypesInfo.Defs[d.Name].(*types.Func)
					analyze(d.Body, d.Name.Name, fn)
					literals(d.Body, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						literals(vs, vs.Names[0].Name)
					}
				}
			}
		}
	}

	// Fixed point: what may each declared function acquire, and may it
	// block on a channel, through in-package static calls?
	mayAcquire := make(map[*types.Func]map[lockID]bool)
	mayBlock := make(map[*types.Func]bool)
	byFn := make(map[*types.Func]*funcLock)
	for _, u := range units {
		if u.fn == nil {
			continue
		}
		byFn[u.fn] = u
		set := make(map[lockID]bool)
		for _, a := range u.acquires {
			set[a.id] = true
		}
		mayAcquire[u.fn] = set
		mayBlock[u.fn] = u.blocks
	}
	for changed := true; changed; {
		changed = false
		for fn, u := range byFn {
			for _, c := range u.calls {
				for id := range mayAcquire[c.callee] {
					if !mayAcquire[fn][id] {
						mayAcquire[fn][id] = true
						changed = true
					}
				}
				if mayBlock[c.callee] && !mayBlock[fn] {
					mayBlock[fn] = true
					changed = true
				}
			}
		}
	}

	// Order edges: held → acquired, from direct acquisitions and from
	// calls that may acquire; calls are also where re-acquisition and
	// held-across-blocking diagnostics interprocedurally surface.
	edges := make(map[lockID]map[lockID]token.Pos)
	addEdge := func(from, to lockID, pos token.Pos) {
		if from == to {
			return
		}
		m := edges[from]
		if m == nil {
			m = make(map[lockID]token.Pos)
			edges[from] = m
		}
		if _, ok := m[to]; !ok {
			m[to] = pos
		}
	}
	for _, u := range units {
		for _, a := range u.acquires {
			for _, h := range a.held {
				addEdge(h, a.id, a.pos)
			}
		}
		for _, c := range u.calls {
			if len(c.held) == 0 {
				continue
			}
			callee := c.callee.Name()
			var acq []string
			for id := range mayAcquire[c.callee] {
				acq = append(acq, string(id))
			}
			sort.Strings(acq)
			for _, id := range acq {
				for _, h := range c.held {
					if h == lockID(id) {
						pass.Reportf(c.pos, "call to %s may re-acquire %s, already held here — a self-deadlock; release first, or justify with //detlint:allow lockorder <reason>", callee, id)
						continue
					}
					addEdge(h, lockID(id), c.pos)
				}
			}
			if mayBlock[c.callee] {
				pass.Reportf(c.pos, "call to %s may block on a channel while holding %s — the lock couples every peer of that channel; release first, or justify with //detlint:allow lockorder <reason>", callee, joinIDs(c.held))
			}
		}
	}

	reportOrderCycles(pass, edges)
	return nil
}

// reportOrderCycles finds cycles in the acquisition-order graph and
// reports each once, deterministically, at its lexically first edge.
func reportOrderCycles(pass *analysis.Pass, edges map[lockID]map[lockID]token.Pos) {
	nodes := make([]lockID, 0, len(edges))
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	succs := func(n lockID) []lockID {
		out := make([]lockID, 0, len(edges[n]))
		for s := range edges[n] {
			out = append(out, s)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	seen := make(map[string]bool)
	var stack []lockID
	onStack := make(map[lockID]int)
	done := make(map[lockID]bool)
	var dfs func(n lockID)
	dfs = func(n lockID) {
		onStack[n] = len(stack)
		stack = append(stack, n)
		for _, s := range succs(n) {
			if i, ok := onStack[s]; ok {
				cycle := append([]lockID(nil), stack[i:]...)
				key, pos := canonicalCycle(cycle, edges)
				if !seen[key] {
					seen[key] = true
					pass.Reportf(pos, "inconsistent lock acquisition order: %s — these locks are taken in conflicting orders on different paths, which deadlocks when the paths race; pick one global order, or justify with //detlint:allow lockorder <reason>", key)
				}
				continue
			}
			if !done[s] {
				dfs(s)
			}
		}
		stack = stack[:len(stack)-1]
		delete(onStack, n)
		done[n] = true
	}
	for _, n := range nodes {
		if !done[n] {
			dfs(n)
		}
	}
}

// canonicalCycle rotates the cycle to start at its smallest lock and
// renders it, returning the render and the smallest edge position in it.
func canonicalCycle(cycle []lockID, edges map[lockID]map[lockID]token.Pos) (string, token.Pos) {
	min := 0
	for i := range cycle {
		if cycle[i] < cycle[min] {
			min = i
		}
	}
	rot := append(append([]lockID(nil), cycle[min:]...), cycle[:min]...)
	parts := make([]string, 0, len(rot)+1)
	pos := token.NoPos
	for i, id := range rot {
		parts = append(parts, string(id))
		next := rot[(i+1)%len(rot)]
		if p, ok := edges[id][next]; ok && (pos == token.NoPos || p < pos) {
			pos = p
		}
	}
	parts = append(parts, string(rot[0]))
	return strings.Join(parts, " → "), pos
}

func joinIDs(ids []lockID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = string(id)
	}
	return strings.Join(parts, ", ")
}

func snapshot(held heldSet) []lockID {
	out := make([]lockID, 0, len(held))
	for id := range held {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// analyze solves must-held over body's control-flow graph, then replays
// each reachable block once from its solved entry fact.
func (w *lockWalker) analyze(body *ast.BlockStmt) {
	g := ir.New(body)
	w.ops = blockingOps(w.pass.TypesInfo, g)
	facts := ir.Solve(g, ir.Problem[heldSet]{
		Boundary: heldSet{},
		Init:     nil,
		Meet:     meetHeld,
		Equal:    func(a, b heldSet) bool { return (a == nil) == (b == nil) && maps.Equal(a, b) },
		Transfer: func(b *ir.Block, in heldSet) heldSet { return w.exec(b, in, false) },
	})
	for _, b := range g.Blocks {
		w.exec(b, facts.In[b], true)
	}
}

// meetHeld keeps the locks held on both paths; nil is the identity.
func meetHeld(a, b heldSet) heldSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := heldSet{}
	for id, h := range a {
		if _, ok := b[id]; ok {
			out[id] = h
		}
	}
	return out
}

// exec runs block b from the held set in and returns the set at its end.
// Replaying, it also records acquisitions, in-package calls and blocking
// points, and reports; as the solver's transfer it only tracks the set. A
// blocking operation sees the set on entry to its node.
func (w *lockWalker) exec(b *ir.Block, in heldSet, replay bool) heldSet {
	if in == nil {
		return nil
	}
	held := maps.Clone(in)
	ops := w.ops[b]
	for i, n := range b.Nodes {
		for ; replay && len(ops) > 0 && ops[0].node == i; ops = ops[1:] {
			w.blockingOp(ops[0], held)
		}
		walkHere(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok {
				w.call(call, held, replay)
			}
			return true
		})
	}
	if replay {
		for _, op := range ops { // the select ending a select head
			w.blockingOp(op, held)
		}
	}
	return held
}

// lockorderWhat names each kind of blocking operation in a finding.
var lockorderWhat = [...]string{
	blockSend:   "channel send",
	blockRecv:   "channel receive",
	blockRange:  "range over channel",
	blockSelect: "select",
}

// blockingOp records a blocking channel operation and reports it when any
// lock is held.
func (w *lockWalker) blockingOp(op blockingOp, held heldSet) {
	w.res.blocks = true
	if len(held) > 0 {
		w.pass.Reportf(op.pos, "blocking %s while holding %s — a lock held across a channel operation couples it to every peer goroutine and can deadlock; release first, or justify with //detlint:allow lockorder <reason>", lockorderWhat[op.kind], joinIDs(snapshot(held)))
	}
}

// call classifies one call: mutex operation (mutating held), in-package
// static call (recorded for the interprocedural pass), or neither.
func (w *lockWalker) call(call *ast.CallExpr, held heldSet, replay bool) {
	if op, id, ok := w.mutexOp(call); ok {
		switch op {
		case "Lock", "RLock":
			if h, dup := held[id]; dup {
				if replay && (op == "Lock" || !h.read) {
					w.pass.Reportf(call.Pos(), "%s of %s, which is already held (acquired at %s) — a self-deadlock; release first, or justify with //detlint:allow lockorder <reason>", op, id, w.pass.Fset.Position(h.pos))
				}
				return // RLock after RLock: shared re-entry, not modeled
			}
			if replay {
				w.res.acquires = append(w.res.acquires, acquisition{id: id, held: snapshot(held), pos: call.Pos()})
			}
			held[id] = heldInfo{pos: call.Pos(), read: op == "RLock"}
		case "Unlock", "RUnlock":
			delete(held, id)
		}
		return
	}
	if fn := callee(w.pass.TypesInfo, call); replay && fn != nil {
		if _, ok := w.decls[fn]; ok {
			w.res.calls = append(w.res.calls, callSite{callee: fn, held: snapshot(held), pos: call.Pos()})
		}
	}
}

// mutexOp matches a call to sync.(*Mutex/RWMutex/Locker) Lock family
// methods and derives the lock's structural identity.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (op string, id lockID, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, _ := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	id = w.lockID(sel)
	if id == "" {
		return "", "", false
	}
	return fn.Name(), id, true
}

// lockID names a lock structurally: "Type.field" for field mutexes
// (including embedded promotion), "pkg.var" for package-level ones,
// "func.name" for locals and parameters. Unresolvable shapes return ""
// and are ignored rather than misattributed.
func (w *lockWalker) lockID(sel *ast.SelectorExpr) lockID {
	if s := w.pass.TypesInfo.Selections[sel]; s != nil && len(s.Index()) > 1 {
		// t.Lock() promoted through an embedded mutex field.
		t := derefType(s.Recv())
		if name := typeName(t); name != "" {
			if st, ok := t.Underlying().(*types.Struct); ok && s.Index()[0] < st.NumFields() {
				return lockID(name + "." + st.Field(s.Index()[0]).Name())
			}
		}
		return ""
	}
	return w.exprLockID(sel.X)
}

func (w *lockWalker) exprLockID(e ast.Expr) lockID {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj, _ := w.pass.TypesInfo.Uses[x].(*types.Var)
		if obj == nil {
			return ""
		}
		if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return lockID(obj.Pkg().Name() + "." + obj.Name())
		}
		return lockID(w.fname + "." + obj.Name())
	case *ast.SelectorExpr:
		if s := w.pass.TypesInfo.Selections[x]; s != nil && s.Kind() == types.FieldVal {
			if name := typeName(derefType(s.Recv())); name != "" {
				return lockID(name + "." + s.Obj().Name())
			}
			return ""
		}
		if obj, ok := w.pass.TypesInfo.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil {
			return lockID(obj.Pkg().Name() + "." + obj.Name())
		}
		return ""
	case *ast.IndexExpr:
		return w.exprLockID(x.X)
	case *ast.StarExpr:
		return w.exprLockID(x.X)
	}
	return ""
}

func typeName(t types.Type) string {
	switch n := t.(type) {
	case *types.Named:
		return n.Obj().Name()
	case *types.Alias:
		return n.Obj().Name()
	}
	return ""
}
